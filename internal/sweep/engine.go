package sweep

import (
	"bytes"
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
	"addict/internal/workload/synth"
)

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
// configuration is the unit's machine and load parameters. This is the
// single execution path shared by the sweep engine and internal/exp's
// figure runners — a figure is a preset grid point replayed here.
func Replay(u Unit, set *trace.Set, prof *core.Profile) (sim.Result, error) {
	cfg := sched.Config{Machine: u.Machine, BatchSize: u.Threads, AdmitLimit: u.Admit, Profile: prof}
	return sched.Run(u.Mechanism, set, cfg)
}

// Artifacts is the session cache: the one implementation of the
// trace-window and profiling recipe and the one store of everything a
// session computes — trace windows, migration-point profiles, and replay
// results. The sweep engine, the bench harness, the distributed workers,
// internal/exp's figure pipeline, and the facade's Engine sessions all
// read through it. Trace sets are keyed by workload over fixed (seed,
// scale, window) parameters; migration-point profiles by (workload, L1-I
// geometry), because Algorithm 1's output depends on the cache it
// profiles against; replay results by (workload, mechanism, machine).
//
// Every artifact kind lives in one weight-accounted, single-flight LRU
// (values weighed by artifactWeight), so a residency budget covers the
// whole session and each artifact is computed once no matter how many
// callers request it at the same time. Content is independent of the
// order, interleaving, or worker count of the requests, and a computation
// aborted by context cancellation is evicted rather than cached, so one
// cancelled request never poisons a long-lived session. An optional
// on-disk store sits underneath as a read-through L2: memory misses load
// from disk before recomputing, and computed artifacts spill to disk so
// the next process starts warm.
type Artifacts struct {
	seed          int64
	scale         float64
	profileTraces int
	evalTraces    int
	// workers bounds the generation parallelism of sharded trace requests
	// (1 = serial). It does not affect content.
	workers int
	layout  *codemap.Layout
	// base is the spec prefix every on-disk identity shares (diskBase).
	base string

	mem  *pool.LRU[any]
	disk *store.Store // nil: memory only
}

// NewArtifacts prepares an empty session cache whose trace generation may
// use up to `workers` goroutines (values below 1 run serially). budget
// bounds the in-memory resident weight in approximate bytes (<= 0 =
// unbounded): past it, least-recently-used artifacts are evicted and
// regenerate — deterministically, to identical content — on next use, or
// reload from disk when a store is attached. disk is the optional
// read-through store (nil = memory only).
func NewArtifacts(seed int64, scale float64, profileTraces, evalTraces, workers int, budget int64, disk *store.Store) *Artifacts {
	if workers < 1 {
		workers = 1
	}
	a := &Artifacts{
		seed:          seed,
		scale:         scale,
		profileTraces: profileTraces,
		evalTraces:    evalTraces,
		workers:       workers,
		layout:        codemap.NewLayout(),
		mem:           pool.NewLRU[any](budget, artifactWeight),
		disk:          disk,
	}
	a.base = a.diskBase()
	return a
}

// For returns the cache for a run over the given base parameters: a
// itself when it was built over exactly these (so repeated runs regenerate
// nothing), otherwise a fresh unbounded cache on a's store and worker
// bound — a mismatched cache never substitutes its own artifacts, and even
// mismatched-parameter runs warm-start from disk.
func (a *Artifacts) For(seed int64, scale float64, profileTraces, evalTraces int) *Artifacts {
	if a.seed == seed && a.scale == scale &&
		a.profileTraces == profileTraces && a.evalTraces == evalTraces {
		return a
	}
	return NewArtifacts(seed, scale, profileTraces, evalTraces, a.workers, 0, a.disk)
}

// Params returns the base parameters the cache was built over, in For's
// argument order.
func (a *Artifacts) Params() (seed int64, scale float64, profileTraces, evalTraces int) {
	return a.seed, a.scale, a.profileTraces, a.evalTraces
}

// CacheStats reports the in-memory cache's counters (resident bytes and
// entries, hits/misses/evictions). Bytes are the artifactWeight estimates,
// not exact heap usage.
func (a *Artifacts) CacheStats() pool.CacheStats { return a.mem.Stats() }

// StoreStats reports the attached on-disk store's counters; ok is false
// when no store is attached.
func (a *Artifacts) StoreStats() (s store.Stats, ok bool) {
	if a.disk == nil {
		return store.Stats{}, false
	}
	return a.disk.Stats(), true
}

// do returns the artifact named by e, reading through memory, then disk,
// then compute. Memory keeps pool.LRU's contract (one computation per key
// no matter how many concurrent callers; failed or cancelled computations
// evicted rather than cached). A computed value is written back to disk
// best effort. Disk corruption and codec drift surface as misses, never as
// decoded garbage: the entry is quarantined and recomputed.
func (a *Artifacts) do(ctx context.Context, e entry, compute func() (any, error)) (any, error) {
	return a.mem.Do(ctx, e.spec, func() (any, error) {
		if a.disk == nil {
			return compute()
		}
		if data, ok := a.disk.Get(e.spec); ok {
			v, err := e.decode(bytes.NewReader(data))
			if err == nil {
				return v, nil
			}
			// The content digest passed but the payload does not decode: a
			// codec version drift. Quarantine so the fresh encoding below
			// replaces it instead of failing every future read.
			a.disk.MarkCorrupt(e.spec)
		}
		v, err := compute()
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if e.encode(&buf, v) == nil {
			a.disk.Put(e.spec, buf.Bytes())
		}
		return v, nil
	})
}

// eventBytes is the resident size of one trace event.
const eventBytes = int64(unsafe.Sizeof(trace.Event{}))

// resultBytes is the resident size of a replay result boxed in the cache.
const resultBytes = int64(unsafe.Sizeof(sim.Result{}))

// artifactWeight estimates the resident footprint in bytes of an artifact
// and its cache key (the full spec string) for the cache's weight
// accounting. Trace sets dominate (eventBytes per event plus per-trace
// overhead); profiles and replay results are small, so for them the key
// is a large share of the entry.
func artifactWeight(key string, v any) int64 {
	entryOverhead := 256 + int64(len(key)) // cell, map entry, list links, key
	switch x := v.(type) {
	case *trace.Set:
		w := entryOverhead
		for _, t := range x.Traces {
			w += 96 + eventBytes*int64(len(t.Events))
		}
		return w
	case *core.Profile:
		w := entryOverhead
		for _, tp := range x.Txns {
			w += 128
			for _, op := range tp.Ops {
				w += 64 + 8*int64(len(op.Seq))
			}
		}
		return w
	case sim.Result:
		return entryOverhead + resultBytes + 8*int64(len(x.CoreActive))
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

// ProfileSet returns the workload's profiling window (the paper's "first
// 1000" traces): shards [0, NumShards(profileTraces)) of the sharded trace
// space, worker-count independent. The workload name resolves through
// synth.Workload (TPC benchmarks, "synth:" encoded names), and every
// artifact is keyed on its canonical spelling.
func (a *Artifacts) ProfileSet(ctx context.Context, name string) (*trace.Set, error) {
	return a.window(ctx, "profset", name, 0, a.profileTraces)
}

// EvalSet returns the workload's evaluation window (the paper's "next
// 1000"): the shards immediately after the profiling window, so the two
// sets are disjoint by construction regardless of computation order.
func (a *Artifacts) EvalSet(ctx context.Context, name string) (*trace.Set, error) {
	first := workload.NumShards(a.profileTraces, workload.DefaultShardSize)
	return a.window(ctx, "evalset", name, first, a.evalTraces)
}

// window returns n traces of the workload starting at shard first.
func (a *Artifacts) window(ctx context.Context, kind, name string, first, n int) (*trace.Set, error) {
	name, build, err := synth.Workload(name)
	if err != nil {
		return nil, err
	}
	v, err := a.do(ctx, a.setEntry(kind, name), func() (any, error) {
		return workload.GenerateSetShardedWith(ctx, build, a.seed, a.scale, first, n, workload.DefaultShardSize, a.workers)
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
	name, _, err := synth.Workload(name)
	if err != nil {
		return nil, err
	}
	v, err := a.do(ctx, a.profileEntry(name, m), func() (any, error) {
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

// Result replays the workload's evaluation window under a mechanism at the
// default load point on the given machine, caching the outcome per
// (workload, mechanism, machine) — repeated Schedule calls on one session,
// and the figures sharing a replay (Figures 5, 6, 8b, 9), all hit this
// cache. The replay goes through the sweep execution path: a session's
// (workload, mechanism) point is the default-load sweep unit on its
// machine.
func (a *Artifacts) Result(ctx context.Context, name string, mech sched.Mechanism, machine sim.Config) (sim.Result, error) {
	name, _, err := synth.Workload(name)
	if err != nil {
		return sim.Result{}, err
	}
	v, err := a.do(ctx, a.resultEntry(name, mech, machine), func() (any, error) {
		return a.replay(ctx, NewUnit(name, mech, machine, 0, 0))
	})
	if err != nil {
		return sim.Result{}, err
	}
	return v.(sim.Result), nil
}

// replay executes one unit over the cached trace window and, for ADDICT,
// the cached migration-point profile. Only ADDICT consults the profile, so
// other mechanisms skip Algorithm 1 entirely.
func (a *Artifacts) replay(ctx context.Context, u Unit) (sim.Result, error) {
	var prof *core.Profile
	if u.Mechanism == sched.ADDICT {
		p, err := a.Profile(ctx, u.Workload, u.Machine)
		if err != nil {
			return sim.Result{}, err
		}
		prof = p
	}
	set, err := a.EvalSet(ctx, u.Workload)
	if err != nil {
		return sim.Result{}, err
	}
	return Replay(u, set, prof)
}

// RunUnit executes one unit over the artifact cache and reduces the result
// to metrics. This is the single per-unit execution path: the in-process
// engine (Run) and the distributed workers (internal/dist) both call it,
// which is what makes a re-dispatched unit a deterministic recomputation —
// or, with a shared store attached, a cache hit — instead of a divergent
// answer.
func RunUnit(ctx context.Context, a *Artifacts, u Unit) (Metrics, error) {
	r, err := a.replay(ctx, u)
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
// arts is the artifact cache to run over (through Artifacts.For on the
// spec's resolved parameters); nil builds a fresh one from the spec. A
// long-lived session passes its own to share one cache across repeated
// sweeps.
func Run(ctx context.Context, spec Spec, em Emitter, workers int, arts *Artifacts) error {
	units, err := spec.Expand()
	if err != nil {
		return err
	}
	if workers < 1 {
		workers = 1
	}
	s := spec.Resolved()
	if arts == nil {
		arts = NewArtifacts(s.Seed, s.Scale, s.ProfileTraces, s.EvalTraces, workers, 0, nil)
	}
	arts = arts.For(s.Seed, s.Scale, s.ProfileTraces, s.EvalTraces)
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
