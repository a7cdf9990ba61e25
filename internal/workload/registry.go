package workload

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"addict/internal/trace"
)

// The workload-name registry: ONE funnel every by-name consumer — the
// sweep grid, the bench harness, cmd/tracegen, and the addict facade —
// resolves workload names through. The three TPC benchmarks are built in;
// other name spaces (the "synth:" encoded names of workload/synth, future
// backends) register a Source, typically from an init function, and are
// claimed by prefix. Before the registry, sweep, bench, and tracegen each
// re-implemented the TPC-versus-synth dispatch; a new backend had to patch
// all three.

// Resolved is a workload name resolved to its generators. Both functions
// are pure in their arguments, so a Resolved handle is safe to share and
// reuse.
type Resolved struct {
	// Build compiles one populated benchmark instance — the single-
	// instance entry point (facade NewWorkload, serial generation).
	Build func(seed int64, scale float64) (*Benchmark, error)
	// GenerateSharded generates traces [baseShard*shardSize, ...+n) under
	// the deterministic shard recipe: byte-identical for every workers
	// value, cancellable between shards via ctx.
	GenerateSharded func(ctx context.Context, seed int64, scale float64, baseShard, n, shardSize, workers int) (*trace.Set, error)
}

// Source is a pluggable workload-name backend.
type Source struct {
	// Name identifies the backend in error listings ("synth").
	Name string
	// Owns reports whether the backend claims the name (typically a
	// prefix test). A claimed name that fails to resolve is an error, not
	// a fall-through to other backends.
	Owns func(name string) bool
	// Resolve validates the claimed name and returns its generators.
	Resolve func(name string) (Resolved, error)
}

var registry struct {
	mu      sync.RWMutex
	sources []Source
}

// Register adds a workload-name backend. It is typically called from a
// backend package's init; later registrations are consulted after earlier
// ones.
func Register(s Source) {
	if s.Owns == nil || s.Resolve == nil {
		panic("workload: Register with nil Owns or Resolve")
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	registry.sources = append(registry.sources, s)
}

// Resolve looks a workload name up in the registry: the built-in TPC
// benchmarks ("TPC-B", "TPC-C", "TPC-E"), then every registered backend in
// registration order. Unknown names report the known name spaces.
func Resolve(name string) (Resolved, error) {
	if build, err := Builder(name); err == nil {
		return Resolved{
			Build: func(seed int64, scale float64) (*Benchmark, error) {
				return build(seed, scale), nil
			},
			GenerateSharded: func(ctx context.Context, seed int64, scale float64, baseShard, n, shardSize, workers int) (*trace.Set, error) {
				return GenerateSetShardedWith(ctx, func(shard int) *Benchmark {
					return build(ShardSeed(seed, shard), scale)
				}, baseShard, n, shardSize, workers)
			},
		}, nil
	}
	registry.mu.RLock()
	sources := registry.sources
	registry.mu.RUnlock()
	for _, s := range sources {
		if s.Owns(name) {
			return s.Resolve(name)
		}
	}
	return Resolved{}, fmt.Errorf("workload: unknown workload %q (want TPC-B, TPC-C, TPC-E%s)",
		name, backendHint(sources))
}

// Validate reports whether the registry resolves the name, without building
// anything.
func Validate(name string) error {
	_, err := Resolve(name)
	return err
}

// backendHint lists the registered backend names for error messages.
func backendHint(sources []Source) string {
	if len(sources) == 0 {
		return ""
	}
	names := make([]string, 0, len(sources))
	for _, s := range sources {
		if s.Name != "" {
			names = append(names, s.Name)
		}
	}
	sort.Strings(names)
	hint := ""
	for _, n := range names {
		hint += ", or a " + n + " name"
	}
	return hint
}
