// Package exp implements the paper's evaluation: one runner per table and
// figure (Table 1, Figures 1-9), plus the ablations called out in
// DESIGN.md. Every runner returns a structured result and renders the same
// rows/series the paper reports, normalized over Baseline where the paper
// normalizes.
//
// One ordered section table defines the report; Run renders it either as a
// plain in-order loop (one worker) or on a bounded worker pool, and both
// produce byte-identical reports. Shared artifacts live in a Workbench that
// is safe for concurrent use: every artifact is memoized with single-flight
// semantics, so concurrent experiments block on the first computation
// instead of duplicating it.
//
// Every replay routes through the sweep execution path (internal/sweep):
// a figure's per-(workload, mechanism) point is the default-load sweep
// unit, Figure 7 a Threads-axis grid, Figure 8a a Deep-machine grid — so
// the figure pipeline and cmd/addict-sweep cannot drift apart.
package exp

import (
	"context"
	"fmt"
	"io"

	"addict/internal/codemap"
	"addict/internal/core"
	"addict/internal/sched"
	"addict/internal/sim"
	"addict/internal/sweep"
	"addict/internal/trace"
)

// Params scopes an experiment run.
type Params struct {
	// Seed drives all workload randomness.
	Seed int64
	// Scale scales the database populations (1.0 = the laptop-scale
	// defaults in package workload).
	Scale float64
	// ProfileTraces is the number of traces Algorithm 1 profiles (paper:
	// the first 1000).
	ProfileTraces int
	// EvalTraces is the number of traces the scheduling experiments replay
	// (paper: the next 1000).
	EvalTraces int
	// StabilityTraces is the large trace count for Figure 4 (paper:
	// 10000 beyond the profiling set).
	StabilityTraces int
	// Machine is the simulated hardware.
	Machine sim.Config
}

// DefaultParams returns the paper-faithful setup (Section 4.1).
func DefaultParams() Params {
	return Params{
		Seed:            42,
		Scale:           1.0,
		ProfileTraces:   1000,
		EvalTraces:      1000,
		StabilityTraces: 10000,
		Machine:         sim.Shallow(),
	}
}

// QuickParams returns a reduced setup for tests and fast benchmark runs:
// the same structure at ~1/4 the trace counts and 1/2 the database scale.
// Seed, scale, and trace windows are the sweep defaults, so a quick run,
// a default sweep grid, and a default Engine share one artifact cache.
func QuickParams() Params {
	s := sweep.Spec{}.Resolved()
	return Params{
		Seed:            s.Seed,
		Scale:           s.Scale,
		ProfileTraces:   s.ProfileTraces,
		EvalTraces:      s.EvalTraces,
		StabilityTraces: 1000,
		Machine:         sim.Shallow(),
	}
}

// Workloads lists the paper's three benchmarks in presentation order.
var Workloads = []string{"TPC-B", "TPC-C", "TPC-E"}

// Workbench is the figure pipeline's view of the session cache
// (sweep.Artifacts) on the run's machine: per-workload artifacts —
// profiling and evaluation trace sets, the migration-point profile,
// per-mechanism replay results — computed once (single-flight) no matter
// how many experiments request them concurrently, with content independent
// of order, interleaving, and worker count. The figure runners consume
// artifacts as plain values; on a context-cancelled run the accessors
// unwind with an internal panic Run recovers into an ordinary error, so a
// cancelled run renders nothing half-computed.
type Workbench struct {
	P      Params
	Layout *codemap.Layout

	ctx  context.Context
	arts *sweep.Artifacts
}

// NewWorkbench prepares an empty workbench whose trace generation may use
// up to `workers` goroutines (artifact content is identical for every
// workers value) and whose artifact computations abort between work items
// once ctx is cancelled.
func NewWorkbench(ctx context.Context, p Params, workers int) *Workbench {
	return NewWorkbenchOn(ctx, p, sweep.NewArtifacts(p.Seed, p.Scale, p.ProfileTraces, p.EvalTraces, workers, 0, nil))
}

// NewWorkbenchOn wraps a session cache as an experiment workbench — the
// hook Run uses to render experiments over the same artifacts a session's
// Schedule/Sweep/Bench calls already computed. A cache built over other
// base parameters than p's is not used (see sweep.Artifacts.For).
func NewWorkbenchOn(ctx context.Context, p Params, arts *sweep.Artifacts) *Workbench {
	arts = arts.For(p.Seed, p.Scale, p.ProfileTraces, p.EvalTraces)
	return &Workbench{
		P:      p,
		Layout: arts.Layout(),
		ctx:    ctx,
		arts:   arts,
	}
}

// cancelPanic carries a context cancellation out of the value-oriented
// figure runners; Run recovers it into an error.
type cancelPanic struct{ err error }

// take unwraps an artifact result: cancellation panics (recovered by Run),
// any other error is a programming error and crashes —
// matching the engine's fail-fast philosophy.
func take[T any](w *Workbench, v T, err error) T {
	if err != nil {
		if w.ctx.Err() != nil {
			panic(cancelPanic{err})
		}
		panic(fmt.Sprintf("exp: %v", err))
	}
	return v
}

// recoverCancel converts a cancelPanic into its error; other panics
// propagate. Use in a defer: *errp is set when the run was cancelled.
func recoverCancel(errp *error) {
	switch r := recover().(type) {
	case nil:
	case cancelPanic:
		*errp = r.err
	default:
		panic(r)
	}
}

// ProfileSet returns the profiling trace set (the paper's "first 1000"
// traces): shards [0, NumShards(ProfileTraces)) of the workload's sharded
// trace space.
func (w *Workbench) ProfileSet(name string) *trace.Set {
	s, err := w.arts.ProfileSet(w.ctx, name)
	return take(w, s, err)
}

// EvalSet returns the evaluation trace set (the paper's "next 1000"): the
// shards immediately after the profiling window, so the two sets are
// disjoint by construction regardless of computation order.
func (w *Workbench) EvalSet(name string) *trace.Set {
	s, err := w.arts.EvalSet(w.ctx, name)
	return take(w, s, err)
}

// Profile returns the workload's Algorithm 1 output over the profiling set,
// with the storage manager's no-migrate zones applied (Section 3.1.3).
func (w *Workbench) Profile(name string) *core.Profile {
	p, err := w.arts.Profile(w.ctx, name, w.P.Machine)
	return take(w, p, err)
}

// Result replays the workload's evaluation set under a mechanism, caching
// the outcome (Figures 5, 6, 8b, and 9 share these runs). The replay goes
// through the sweep execution path (sweep.Replay): a figure's
// per-(workload, mechanism) point is the default-load sweep unit on the
// run's machine.
func (w *Workbench) Result(name string, mech sched.Mechanism) sim.Result {
	r, err := w.arts.Result(w.ctx, name, mech, w.P.Machine)
	return take(w, r, err)
}

// ratio is a/b guarding b=0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// section prints an underlined header.
func section(out io.Writer, title string) {
	fmt.Fprintf(out, "\n%s\n", title)
	for range title {
		fmt.Fprint(out, "=")
	}
	fmt.Fprintln(out)
}
