package addict

import (
	"context"
	"fmt"
	"io"

	"addict/internal/bench"
	"addict/internal/exp"
	"addict/internal/pool"
	"addict/internal/sim"
	"addict/internal/store"
	"addict/internal/sweep"
	"addict/internal/workload"
	"addict/internal/workload/synth"
)

// Engine is a long-lived ADDICT session: one artifact cache (trace
// windows, migration-point profiles, per-mechanism replay results) serving
// many requests — the paper's own split of a static "a priori" Step 1
// feeding a serving phase (Section 3.1.3), lifted to the API. Construct it
// once with functional options, then call its methods from any number of
// goroutines: every artifact is computed once (single-flight) and shared,
// so repeated Traces/Profile/Schedule/Sweep/Bench calls reuse work instead
// of regenerating it.
//
// Every method takes a context.Context and honors cancellation between
// work items (trace-generation shards, sweep units, bench cells,
// experiment sections). A cancelled computation is evicted from the cache,
// not stored, so one aborted request never poisons the session.
//
// The zero-argument session (NewEngine()) uses the quick evaluation sizes
// — seed 42, scale 0.5, 250-trace profiling and evaluation windows, the
// Table 1 machine, all CPUs — taken from the sweep defaults that the bench
// harness and the quick experiment setup also use, so an Engine, a sweep
// grid, and the bench harness share one cache out of the box.
type Engine struct {
	seed            int64
	scale           float64
	profileTraces   int
	evalTraces      int
	stabilityTraces int
	workers         int
	machine         MachineConfig
	progress        io.Writer
	cacheBudget     int64
	storeDir        string
	storeBudget     int64

	arts     *sweep.Artifacts
	storeErr error
}

// EngineOption configures an Engine at construction.
type EngineOption func(*Engine)

// WithWorkers bounds the session's generation and replay parallelism
// (values below 1 select runtime.GOMAXPROCS(0), the package-wide
// convention). The worker count never affects content — only wall-clock.
func WithWorkers(n int) EngineOption { return func(e *Engine) { e.workers = n } }

// WithMachine selects the simulated hardware the session profiles and
// replays on (default: the Table 1 machine, ShallowMachine).
func WithMachine(m MachineConfig) EngineOption { return func(e *Engine) { e.machine = m } }

// WithSeed sets the seed driving all workload randomness (default 42).
func WithSeed(seed int64) EngineOption { return func(e *Engine) { e.seed = seed } }

// WithScale sets the database scale factor (default 0.5, the quick size).
func WithScale(scale float64) EngineOption { return func(e *Engine) { e.scale = scale } }

// WithTraceWindows sizes the session's profiling and evaluation trace
// windows (defaults 250 each, the quick sizes; the paper uses 1000 each)
// and the stability window of the Figure 4 experiment (values <= 0 select
// 4x the evaluation window).
func WithTraceWindows(profile, eval, stability int) EngineOption {
	return func(e *Engine) {
		e.profileTraces = profile
		e.evalTraces = eval
		e.stabilityTraces = stability
	}
}

// WithProgress directs per-cell progress lines of long pipelines (the
// bench harness) to w (default: discarded).
func WithProgress(w io.Writer) EngineOption { return func(e *Engine) { e.progress = w } }

// WithCacheBudget bounds the session artifact cache's resident weight in
// approximate bytes (default 0 = unbounded). Trace windows, migration-point
// profiles, and replay results share one weight-accounted LRU; once the
// budget is exceeded, least-recently-used artifacts are evicted and
// regenerate — deterministically, to identical content — on next use. Set
// this on long-lived multi-tenant sessions (cmd/addict-serve) so one
// session cannot grow without bound.
func WithCacheBudget(bytes int64) EngineOption { return func(e *Engine) { e.cacheBudget = bytes } }

// WithStore attaches a content-addressed, on-disk artifact store at dir
// (created if missing) as the read-through L2 under the session's
// in-memory cache, with a size budget in bytes (<= 0 = unbounded; a GC
// prunes least-recently-used entries past it). Trace windows, Algorithm 1
// profiles, and replay results spill to the store keyed by a stable hash
// of their fully-resolved spec — so server restarts, repeated CI runs, and
// independent processes sharing the directory warm-start instead of
// regenerating the world. Corrupt entries are quarantined and recomputed,
// never decoded into a wrong answer; artifacts regenerate
// deterministically, so the store can be wiped at any time at the cost of
// a cold start. If the directory cannot be opened the session degrades to
// memory-only and StoreErr reports why.
func WithStore(dir string, budget int64) EngineOption {
	return func(e *Engine) {
		e.storeDir = dir
		e.storeBudget = budget
	}
}

// NewEngine constructs a session. The zero-argument form selects the quick
// evaluation sizes; see the Engine documentation.
func NewEngine(opts ...EngineOption) *Engine {
	base := sweep.Spec{}.Resolved()
	e := &Engine{
		seed:          base.Seed,
		scale:         base.Scale,
		profileTraces: base.ProfileTraces,
		evalTraces:    base.EvalTraces,
		machine:       sim.Shallow(),
	}
	for _, opt := range opts {
		opt(e)
	}
	e.workers = pool.NormWorkers(e.workers)
	if e.stabilityTraces <= 0 {
		e.stabilityTraces = 4 * e.evalTraces
	}
	var st *store.Store
	if e.storeDir != "" {
		st, e.storeErr = store.Open(e.storeDir, e.storeBudget)
	}
	e.arts = sweep.NewArtifacts(e.seed, e.scale, e.profileTraces, e.evalTraces, e.workers, e.cacheBudget, st)
	return e
}

// CacheStats reports the session artifact cache's counters: resident bytes
// (weight estimates), entries, hits, misses, and evictions, plus — when an
// on-disk store is attached — the store's hit/miss/verify-failure/GC
// counters. The serving daemon exposes these via expvar.
func (e *Engine) CacheStats() CacheStats {
	cs := CacheStats{CacheStats: e.arts.CacheStats()}
	if st, ok := e.arts.StoreStats(); ok {
		cs.Store = &st
	}
	return cs
}

// StoreErr reports why WithStore's directory could not be opened (nil when
// no store was requested or the store is attached and serving). A session
// with a store error is fully functional, just memory-only; commands that
// treat a requested store as mandatory should fail fast on this.
func (e *Engine) StoreErr() error { return e.storeErr }

// ExperimentParams returns the session parameters as an evaluation-harness
// setup — what Experiments runs with.
func (e *Engine) ExperimentParams() ExperimentParams {
	return exp.Params{
		Seed:            e.seed,
		Scale:           e.scale,
		ProfileTraces:   e.profileTraces,
		EvalTraces:      e.evalTraces,
		StabilityTraces: e.stabilityTraces,
		Machine:         e.machine,
	}
}

// Traces returns the session's evaluation trace window for a workload (the
// paper's "next 1000") — cached: every call after the first returns the
// same set. The name is a TPC name ("TPC-B", "TPC-C", "TPC-E") or an
// encoded synthetic name ("synth:..."); every spelling of one workload
// shares one set.
func (e *Engine) Traces(ctx context.Context, workloadName string) (*TraceSet, error) {
	return e.arts.EvalSet(ctx, workloadName)
}

// Profile returns Algorithm 1's migration points for a workload over the
// session's profiling window and machine — cached per (workload, L1-I
// geometry).
func (e *Engine) Profile(ctx context.Context, workloadName string) (*Profile, error) {
	return e.arts.Profile(ctx, workloadName, e.machine)
}

// Schedule replays the workload's evaluation window under a mechanism on
// the session machine and returns the simulation result — cached per
// (workload, mechanism), so the figures and repeated calls share one
// replay. ADDICT's migration-point profile is computed (and cached)
// automatically.
func (e *Engine) Schedule(ctx context.Context, mech Mechanism, workloadName string) (Result, error) {
	return e.arts.Result(ctx, workloadName, mech, e.machine)
}

// ScheduleSet replays a caller-supplied trace set under the paper's four
// mechanisms concurrently (bounded by the session workers) and returns the
// per-mechanism results, uncached — the counterpart of Schedule for sets
// that did not come from this session. Options.Profile is required (ADDICT
// needs its migration points).
func (e *Engine) ScheduleSet(ctx context.Context, s *TraceSet, opts Options) (map[Mechanism]Result, error) {
	results := make([]Result, len(Mechanisms))
	errs := make([]error, len(Mechanisms))
	if err := pool.RunCtx(ctx, e.workers, len(Mechanisms), func(i int) {
		results[i], errs[i] = Schedule(Mechanisms[i], s, opts)
	}); err != nil {
		return nil, err
	}
	out := make(map[Mechanism]Result, len(Mechanisms))
	for i, mech := range Mechanisms {
		if errs[i] != nil {
			return nil, fmt.Errorf("addict: %s: %w", mech, errs[i])
		}
		out[mech] = results[i]
	}
	return out, nil
}

// GenerateTraces generates n traces of a named workload under the
// deterministic shard recipe: byte-identical for every session worker
// count, uncached (each call generates afresh — use Traces for the
// session's reusable evaluation window).
func (e *Engine) GenerateTraces(ctx context.Context, workloadName string, n int) (*TraceSet, error) {
	_, build, err := synth.Workload(workloadName)
	if err != nil {
		return nil, err
	}
	return workload.GenerateSetShardedWith(ctx, build, e.seed, e.scale, 0, n, workload.DefaultShardSize, e.workers)
}

// SynthTraces generates n traces of a synthetic-workload spec under the
// same shard recipe as GenerateTraces (phase schedules follow the absolute
// trace index, so multi-phase specs shard deterministically too).
func (e *Engine) SynthTraces(ctx context.Context, spec SynthSpec, n int) (*TraceSet, error) {
	build, err := synth.Compile(spec)
	if err != nil {
		return nil, err
	}
	return workload.GenerateSetShardedWith(ctx, build, e.seed, e.scale, 0, n, workload.DefaultShardSize, e.workers)
}

// Sweep expands a declarative grid and executes it on the session workers,
// streaming results to out in the given format ("table", "csv", "jsonl").
// Base parameters the spec leaves zero (seed, scale, trace windows)
// inherit the session's, and when the resolved parameters match the
// session's the sweep reuses the session artifact cache — repeated sweeps
// on one Engine regenerate nothing. Cancellation stops the sweep between
// units; the rows already emitted form a clean prefix.
func (e *Engine) Sweep(ctx context.Context, out io.Writer, spec SweepSpec, format string) error {
	em, err := sweep.NewEmitter(format, out)
	if err != nil {
		return err
	}
	e.inheritBase(&spec.Seed, &spec.Scale, &spec.ProfileTraces, &spec.EvalTraces)
	return sweep.Run(ctx, spec, em, e.workers, e.arts)
}

// inheritBase fills zero-valued base parameters — the "zero means inherit
// the session" convention Sweep and SweepDistributed share.
func (e *Engine) inheritBase(seed *int64, scale *float64, profileTraces, evalTraces *int) {
	if *seed == 0 {
		*seed = e.seed
	}
	if *scale == 0 {
		*scale = e.scale
	}
	if *profileTraces == 0 {
		*profileTraces = e.profileTraces
	}
	if *evalTraces == 0 {
		*evalTraces = e.evalTraces
	}
}

// Bench runs the replay-core benchmark harness on the session cache: the
// cells replay the session's trace windows and profiles (generated at the
// session's worker bound), and the report records the session's seed,
// scale and trace windows. Cells stay strictly serial so they are
// comparable across runs. A zero config machine inherits the session's.
// Progress lines go to the session's WithProgress writer.
func (e *Engine) Bench(ctx context.Context, cfg BenchConfig) (*BenchReport, error) {
	return e.BenchProgress(ctx, cfg, e.progress)
}

// BenchProgress is Bench with a per-call progress writer (nil discards):
// the hook for servers that stream one session's bench progress to the
// requesting client — the session-wide WithProgress writer cannot
// distinguish callers.
func (e *Engine) BenchProgress(ctx context.Context, cfg BenchConfig, progress io.Writer) (*BenchReport, error) {
	if cfg.Machine.Cores == 0 {
		cfg.Machine = e.machine
	}
	return bench.Run(ctx, cfg, progress, e.arts)
}

// GateBench runs the benchmark harness on the session (see Bench) and
// gates the fresh report against a recorded baseline: per-cell speedups
// are computed, each cell's events/sec is normalized by the same run's
// Baseline-mechanism cell on the same workload so machine speed cancels
// out of the gated ratio, and the gate fails on the worst cell rather
// than the aggregate. The returned file carries the verdict (for the
// BENCH_*.json artifact); the error covers runs and pairs that cannot be
// judged — an incomparable baseline (different config, measurement
// bounds, or cell set) is refused, not compared. A judged regression is
// not an error: inspect Verdict.Pass.
func (e *Engine) GateBench(ctx context.Context, cfg BenchConfig, baseline *BenchReport, gate BenchGateConfig) (*BenchFile, *BenchVerdict, error) {
	if baseline == nil {
		return nil, nil, fmt.Errorf("addict: GateBench requires a baseline report")
	}
	rep, err := e.Bench(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	file, err := bench.Compare(baseline, rep)
	if err != nil {
		return nil, nil, err
	}
	verdict, err := file.ApplyGate(gate)
	if err != nil {
		return nil, nil, err
	}
	return file, verdict, nil
}

// Experiments regenerates the paper's evaluation on the session's
// parameters and worker pool, writing the report to out. With no ids it
// renders the full report (every table and figure, byte-identical for
// every worker count); with ids it runs those experiments in the given
// order ("table1", "fig1" ... "fig9", "ablations", "synthchar" — see
// ExperimentIDs). An unknown id is an error before anything is written.
// Cancellation stops the run between experiment units and leaves a clean
// partial report.
func (e *Engine) Experiments(ctx context.Context, out io.Writer, ids ...string) error {
	return exp.Run(ctx, out, e.ExperimentParams(), e.workers, e.arts, ids...)
}
