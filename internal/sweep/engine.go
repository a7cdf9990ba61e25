package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"unsafe"

	"addict/internal/codemap"
	"addict/internal/core"
	"addict/internal/pool"
	"addict/internal/sched"
	"addict/internal/sim"
	"addict/internal/store"
	"addict/internal/trace"
	"addict/internal/workload"
)

// ValidateWorkloadName rejects names the workload-name registry does not
// resolve — neither a TPC benchmark nor a registered backend (encoded
// synthetic workloads). Kept as the sweep-flavored wrapper over
// workload.Validate, the one registry every by-name consumer shares.
func ValidateWorkloadName(name string) error {
	return workload.Validate(name)
}

// Metrics are the per-unit outcomes every emitter reports. All values are
// raw (not normalized): normalization needs a baseline point, and which
// point that is belongs to the analysis over the emitted rows, not to the
// engine.
type Metrics struct {
	// Makespan is the cycle the last transaction completed at.
	Makespan uint64 `json:"makespan_cycles"`
	// AvgLatency is the mean transaction latency in cycles.
	AvgLatency float64 `json:"avg_latency_cycles"`
	// Instructions is the dynamic instruction count.
	Instructions uint64 `json:"instructions"`
	// IPC is aggregate instructions per cycle (Instructions / Makespan).
	IPC float64 `json:"ipc"`
	// MPKI per cache level.
	L1IMPKI float64 `json:"l1i_mpki"`
	L1DMPKI float64 `json:"l1d_mpki"`
	LLCMPKI float64 `json:"llc_mpki"`
	// SwitchesPerKI is migrations+switches per 1000 instructions.
	SwitchesPerKI float64 `json:"switches_per_ki"`
	// OverheadShare is migration/switch cycles over busy cycles.
	OverheadShare float64 `json:"overhead_share"`
	// Speculation counters (HTMSPEC); zero — and omitted from JSON — for
	// the non-speculative mechanisms, so pre-existing rows are unchanged.
	CapacityAborts uint64 `json:"capacity_aborts,omitempty"`
	ConflictAborts uint64 `json:"conflict_aborts,omitempty"`
	SpecFallbacks  uint64 `json:"spec_fallbacks,omitempty"`
}

// Measure reduces a simulation result to the sweep metrics.
func Measure(r sim.Result) Metrics {
	m := r.Machine
	ipc := 0.0
	if r.Makespan > 0 {
		ipc = float64(m.Instructions) / float64(r.Makespan)
	}
	return Metrics{
		Makespan:       r.Makespan,
		AvgLatency:     r.AvgLatency(),
		Instructions:   m.Instructions,
		IPC:            ipc,
		L1IMPKI:        m.MPKI(m.L1IMisses),
		L1DMPKI:        m.MPKI(m.L1DMisses),
		LLCMPKI:        m.MPKI(m.SharedMisses),
		SwitchesPerKI:  r.SwitchesPerKInstr(),
		OverheadShare:  r.OverheadShare(),
		CapacityAborts: r.Spec.CapacityAborts,
		ConflictAborts: r.Spec.ConflictAborts,
		SpecFallbacks:  r.Spec.Fallbacks,
	}
}

// Replay executes one unit over prepared artifacts: the scheduling
// configuration is assembled from the unit's machine and load parameters on
// top of the frozen mechanism knobs (sched.DefaultConfig). This is the
// single execution path shared by the sweep engine and internal/exp's
// figure runners — a figure is a preset grid point replayed here.
func Replay(u Unit, set *trace.Set, prof *core.Profile) (sim.Result, error) {
	cfg := sched.DefaultConfig(u.Machine)
	cfg.Profile = prof
	cfg.BatchSize = u.Threads
	cfg.AdmitLimit = u.Admit
	return sched.Run(u.Mechanism, set, cfg)
}

// Artifacts caches the artifacts experiment units share — the one
// implementation of the trace-window and profiling recipe, used by the
// sweep engine, the bench harness, internal/exp's figure pipeline, and the
// facade's Engine sessions. Trace sets are keyed by workload over fixed
// (seed, scale, window) parameters; migration-point profiles are keyed by
// (workload, L1-I geometry), because Algorithm 1's output depends on the
// cache it profiles against. Every artifact is single-flight memoized with
// order-free content; a computation aborted by context cancellation is
// evicted rather than cached, so one cancelled request never poisons a
// long-lived session.
type Artifacts struct {
	seed          int64
	scale         float64
	profileTraces int
	evalTraces    int
	// workers bounds the generation parallelism of sharded trace requests
	// (1 = serial). It does not affect content.
	workers int
	layout  *codemap.Layout

	// cache holds every artifact kind — trace windows, profiles, and the
	// Workbench's replay results — in one weight-accounted LRU, so a
	// residency budget covers the whole session instead of per-kind pools.
	// Keys are kind-prefixed ("profset", "evalset", "profile", "result");
	// values are weighed by artifactWeight. Unbounded by default (every
	// artifact stays resident, the pre-eviction behavior); Bound turns on
	// eviction for serving deployments. An attached on-disk store
	// (SetStore) layers underneath as a read-through L2: memory misses
	// load from disk before recomputing, and computed artifacts spill to
	// disk so the next process starts warm.
	cache *store.CachedStore
}

// NewArtifacts prepares an empty artifact cache whose trace generation may
// use up to `workers` goroutines (values below 1 run serially).
func NewArtifacts(seed int64, scale float64, profileTraces, evalTraces, workers int) *Artifacts {
	if workers < 1 {
		workers = 1
	}
	return &Artifacts{
		seed:          seed,
		scale:         scale,
		profileTraces: profileTraces,
		evalTraces:    evalTraces,
		workers:       workers,
		layout:        codemap.NewLayout(),
		cache:         store.NewCached(pool.NewLRU[any](0, artifactWeight), nil),
	}
}

// Bound sets the cache's resident-weight budget in approximate bytes
// (<= 0 = unbounded) and immediately evicts down to it. Eviction is safe
// at any time: artifacts regenerate deterministically, so an evicted
// window or profile recomputes to identical content — only pointer
// identity across calls is lost once a budget is set. With a store
// attached, an evicted artifact usually reloads from disk instead of
// recomputing.
func (a *Artifacts) Bound(budget int64) { a.cache.Mem().SetBudget(budget) }

// SetStore attaches an on-disk artifact store as the read-through L2
// under the in-memory cache (nil detaches). Artifacts already resident in
// memory are unaffected; subsequent misses load from the store before
// recomputing, and computed artifacts are persisted best-effort.
func (a *Artifacts) SetStore(st *store.Store) { a.cache.SetDisk(st) }

// Store returns the attached on-disk store, nil when memory-only.
func (a *Artifacts) Store() *store.Store { return a.cache.Disk() }

// CacheStats reports the artifact cache's counters (resident bytes and
// entries, hits/misses/evictions). Bytes are the artifactWeight estimates,
// not exact heap usage.
func (a *Artifacts) CacheStats() pool.CacheStats { return a.cache.Mem().Stats() }

// StoreStats reports the attached on-disk store's counters; ok is false
// when no store is attached.
func (a *Artifacts) StoreStats() (s store.Stats, ok bool) {
	if d := a.cache.Disk(); d != nil {
		return d.Stats(), true
	}
	return store.Stats{}, false
}

// eventBytes is the resident size of one trace event.
const eventBytes = int64(unsafe.Sizeof(trace.Event{}))

// artifactWeight estimates an artifact's resident footprint in bytes for
// the cache's weight accounting. Trace sets dominate (eventBytes per event
// plus per-trace overhead); profiles and replay results are small but still
// accounted so a tiny budget behaves sanely.
func artifactWeight(v any) int64 {
	const entryOverhead = 256 // cell, map entry, list links, key
	switch x := v.(type) {
	case *trace.Set:
		w := int64(entryOverhead)
		for _, t := range x.Traces {
			w += 96 + eventBytes*int64(len(t.Events))
		}
		return w
	case *core.Profile:
		w := int64(entryOverhead)
		for _, tp := range x.Txns {
			w += 128
			for _, op := range tp.Ops {
				w += 64 + 8*int64(len(op.Seq))
			}
		}
		return w
	case sim.Result:
		return entryOverhead + 512 + 8*int64(len(x.CoreActive))
	default:
		// An unrecognized kind must never undermine the budget: a flat
		// guess lets a large value count as a few bytes and the resident
		// set overshoot. Size the fallback from the encoded value (doubled:
		// Go heap objects outweigh their wire form), and when the value
		// does not even encode, assume it is large.
		if data, err := json.Marshal(v); err == nil {
			return entryOverhead + 2*int64(len(data))
		}
		return 1 << 20
	}
}

// Layout returns the storage manager's code layout (no-migrate zones,
// routine ranges) the cache profiles against.
func (a *Artifacts) Layout() *codemap.Layout { return a.layout }

// Matches reports whether the cache was built over exactly these base
// parameters — the compatibility test a session runs before sharing its
// cache with a sweep or bench configuration.
func (a *Artifacts) Matches(seed int64, scale float64, profileTraces, evalTraces int) bool {
	return a.seed == seed && a.scale == scale &&
		a.profileTraces == profileTraces && a.evalTraces == evalTraces
}

// ProfileSet returns the workload's profiling window (the paper's "first
// 1000" traces): shards [0, NumShards(profileTraces)) of the sharded trace
// space, worker-count independent. The workload name resolves through the
// workload-name registry (TPC benchmarks, "synth:" encoded names).
func (a *Artifacts) ProfileSet(ctx context.Context, name string) (*trace.Set, error) {
	v, err := a.cache.Do(ctx, "profset\x00"+name, a.setEntry("profset", name), func() (any, error) {
		r, err := workload.Resolve(name)
		if err != nil {
			return nil, err
		}
		return r.GenerateSharded(ctx, a.seed, a.scale,
			0, a.profileTraces, workload.DefaultShardSize, a.workers)
	})
	if err != nil {
		return nil, err
	}
	return v.(*trace.Set), nil
}

// EvalSet returns the workload's evaluation window (the paper's "next
// 1000"): the shards immediately after the profiling window, so the two
// sets are disjoint by construction regardless of computation order.
func (a *Artifacts) EvalSet(ctx context.Context, name string) (*trace.Set, error) {
	v, err := a.cache.Do(ctx, "evalset\x00"+name, a.setEntry("evalset", name), func() (any, error) {
		r, err := workload.Resolve(name)
		if err != nil {
			return nil, err
		}
		base := workload.NumShards(a.profileTraces, workload.DefaultShardSize)
		return r.GenerateSharded(ctx, a.seed, a.scale,
			base, a.evalTraces, workload.DefaultShardSize, a.workers)
	})
	if err != nil {
		return nil, err
	}
	return v.(*trace.Set), nil
}

// Profile returns Algorithm 1's output for a workload against the given
// machine's L1-I geometry, with the storage manager's no-migrate zones
// applied (Section 3.1.3).
func (a *Artifacts) Profile(ctx context.Context, name string, m sim.Config) (*core.Profile, error) {
	key := fmt.Sprintf("profile\x00%s\x00%d\x00%d", name, m.L1I.SizeBytes, m.L1I.Ways)
	v, err := a.cache.Do(ctx, key, a.profileEntry(name, m), func() (any, error) {
		set, err := a.ProfileSet(ctx, name)
		if err != nil {
			return nil, err
		}
		cfg := core.ProfileConfig{L1I: m.L1I, NoMigrate: a.layout.NoMigrate}
		return core.FindMigrationPoints(set, cfg), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.Profile), nil
}

// RunUnit executes one unit over the artifact cache and reduces the result
// to metrics. Only ADDICT consults the migration-point profile, so other
// mechanisms skip Algorithm 1 entirely. This is the single per-unit
// execution path: the in-process engine (Run) and the distributed workers
// (internal/dist) both call it, which is what makes a re-dispatched unit a
// deterministic recomputation — or, with a shared store attached, a cache
// hit — instead of a divergent answer.
func RunUnit(ctx context.Context, a *Artifacts, u Unit) (Metrics, error) {
	var prof *core.Profile
	if u.Mechanism == sched.ADDICT {
		p, err := a.Profile(ctx, u.Workload, u.Machine)
		if err != nil {
			return Metrics{}, fmt.Errorf("sweep: %s: %w", u.ID, err)
		}
		prof = p
	}
	set, err := a.EvalSet(ctx, u.Workload)
	if err != nil {
		return Metrics{}, fmt.Errorf("sweep: %s: %w", u.ID, err)
	}
	r, err := Replay(u, set, prof)
	if err != nil {
		return Metrics{}, fmt.Errorf("sweep: %s: %w", u.ID, err)
	}
	return Measure(r), nil
}

// Run expands the spec and executes every unit on up to `workers`
// goroutines (values below 1 run serially), streaming each unit's result to
// the emitter in expansion order as soon as the unit (and every unit before
// it) has finished. Output is byte-identical for every worker count: unit
// execution order never affects content (deterministic simulation over
// single-flight, order-free artifacts) and emission order is fixed by the
// grid, not by completion.
//
// Once ctx is cancelled no new unit starts and no further row is emitted,
// and the call returns ctx's error — the rows already streamed form a
// clean prefix of the full sweep.
//
// arts is the artifact cache to run over; nil builds a fresh one from the
// spec. A long-lived session passes its own to share one cache across
// repeated sweeps. A cache whose base parameters do not Match the spec's
// resolved parameters is ignored (a fresh one is built), so a mismatched
// cache can never silently substitute its own artifacts.
func Run(ctx context.Context, spec Spec, em Emitter, workers int, arts *Artifacts) error {
	units, err := spec.Expand()
	if err != nil {
		return err
	}
	// Validate workload names before spending any cycles.
	seen := map[string]bool{}
	for _, u := range units {
		if !seen[u.Workload] {
			if err := ValidateWorkloadName(u.Workload); err != nil {
				return fmt.Errorf("sweep: %w", err)
			}
			seen[u.Workload] = true
		}
	}

	if workers < 1 {
		workers = 1
	}
	s := spec.withDefaults()
	if arts != nil && !arts.Matches(s.Seed, s.Scale, s.ProfileTraces, s.EvalTraces) {
		// withDefaults may have normalized parameters (e.g. seed 0 -> 42)
		// past what the caller matched against; never let a mismatched
		// cache substitute its own artifacts.
		arts = nil
	}
	if arts == nil {
		arts = NewArtifacts(s.Seed, s.Scale, s.ProfileTraces, s.EvalTraces, workers)
	}
	results := make([]Metrics, len(units))
	errs := make([]error, len(units))
	done := make([]chan struct{}, len(units))
	for i := range done {
		done[i] = make(chan struct{})
	}
	// stopped makes the remaining units no-ops after an error return, so
	// the pool goroutine drains immediately instead of simulating a grid
	// nobody will read.
	var stopped atomic.Bool
	stop := func(err error) error { stopped.Store(true); return err }
	go pool.RunCtx(ctx, workers, len(units), func(i int) {
		defer close(done[i])
		if stopped.Load() {
			return
		}
		results[i], errs[i] = RunUnit(ctx, arts, units[i])
	})

	if err := em.Begin(units); err != nil {
		return stop(err)
	}
	for i := range units {
		select {
		case <-done[i]:
		case <-ctx.Done():
			return stop(ctx.Err())
		}
		if errs[i] != nil {
			return stop(errs[i])
		}
		if err := em.Emit(units[i], results[i]); err != nil {
			return stop(err)
		}
	}
	return em.End()
}
