package exp

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"addict/internal/pool"
	"addict/internal/sched"
	"addict/internal/sweep"
)

// plan binds an experiment to a workbench: it returns the experiment's
// independent units of work, which may run concurrently and in any order,
// and the render step that writes the experiment's sections once every
// unit has finished.
type plan func(w *Workbench) (units []func(), render func(io.Writer))

// experiment is one entry of the report: an id and its plan.
type experiment struct {
	id string
	// replays lists the mechanisms whose per-workload replays of the
	// paper's workloads the experiment reads; a pooled run computes those
	// first, as units of their own.
	replays []sched.Mechanism
	plan    plan
}

// experiments is the paper's evaluation report — Table 1, Figures 1-9, the
// ablations, and the synthetic characterization — in presentation order.
// The full report, single-experiment runs, and IDs all derive from this
// table; it is the only place the order is written down.
var experiments = []experiment{
	{id: "table1", plan: func(w *Workbench) ([]func(), func(io.Writer)) {
		return nil, func(out io.Writer) { Table1(out, w.P.Machine) }
	}},
	{id: "fig1", plan: rendered(nil, func(w *Workbench, _ string, out io.Writer) { Fig1(w).Render(out) })},
	{id: "fig2", plan: rendered(Workloads, func(w *Workbench, name string, out io.Writer) { Fig2(w, name).Render(out) })},
	{id: "fig3", plan: rendered(nil, func(w *Workbench, _ string, out io.Writer) { Fig3(w).Render(out) })},
	{id: "fig4", plan: rendered([]string{"TPC-B", "TPC-C"}, func(w *Workbench, name string, out io.Writer) { Fig4(w, name).Render(out) })},
	{id: "fig5", replays: sched.Mechanisms, plan: gather(Workloads, Compare, Fig5Render)},
	{id: "fig6", replays: sched.Mechanisms, plan: gather(Workloads, Compare, Fig6Render)},
	{id: "fig7", replays: []sched.Mechanism{sched.Baseline}, plan: rendered(Workloads, func(w *Workbench, name string, out io.Writer) { Fig7(w, name).Render(out) })},
	{id: "fig8a", plan: gather(Workloads, Fig8a, Fig8aRender)},
	{id: "fig8b", replays: sched.Mechanisms, plan: gather(Workloads, Compare, Fig8bRender)},
	{id: "fig9", replays: sched.Mechanisms, plan: gather(Workloads, Compare, Fig9Render)},
	{id: "ablations", replays: []sched.Mechanism{sched.Baseline, sched.ADDICT}, plan: rendered(Workloads, func(w *Workbench, name string, out io.Writer) { Ablate(w, name).Render(out) })},
	// Synthetic characterization fans out per scenario (each is a full
	// generate+profile+replay unit) and renders from the assembled rows.
	{id: "synthchar", plan: gather(SynthWorkloads(), synthCharRow, func(out io.Writer, rows []SynthCharRow) {
		SynthCharResult{Rows: rows}.Render(out)
	})},
}

// gather plans an experiment as one unit per name, each computing a value;
// the render step draws the values in name order.
func gather[T any](names []string, compute func(w *Workbench, name string) T, render func(io.Writer, []T)) plan {
	return func(w *Workbench) ([]func(), func(io.Writer)) {
		vs := make([]T, len(names))
		units := make([]func(), len(names))
		for i, name := range names {
			units[i] = func() { vs[i] = compute(w, name) }
		}
		return units, func(out io.Writer) { render(out, vs) }
	}
}

// rendered plans an experiment as one unit per name (a single unit for nil
// names), each rendering into a private buffer; the render step writes the
// buffers in name order.
func rendered(names []string, piece func(w *Workbench, name string, out io.Writer)) plan {
	if names == nil {
		names = []string{""}
	}
	return gather(names, func(w *Workbench, name string) []byte {
		var buf bytes.Buffer
		piece(w, name, &buf)
		return buf.Bytes()
	}, func(out io.Writer, bufs [][]byte) {
		for _, b := range bufs {
			out.Write(b)
		}
	})
}

// IDs lists the experiment ids in the report's presentation order.
func IDs() []string {
	ids := make([]string, len(experiments))
	for i, s := range experiments {
		ids[i] = s.id
	}
	return ids
}

// Run renders the paper's evaluation to out: the full report when ids is
// empty, otherwise the named experiments in the given order. Every id is
// checked before anything is rendered, so an unknown id writes nothing.
//
// arts is the session cache to run over (see NewWorkbenchOn); nil builds a
// fresh one whose trace generation uses up to `workers` goroutines. With
// workers == 1 the experiments run as a plain in-order loop — the
// reference the determinism tests compare against. Otherwise (workers < 1
// selects runtime.GOMAXPROCS(0)) the same experiments run on a bounded
// worker pool: their units run concurrently, and each experiment is
// emitted in order as soon as its units (and every experiment before it)
// are done. The output is byte-identical for every worker count, because
// every shared artifact is single-flight memoized in the workbench and its
// content is independent of computation order (sharded trace generation,
// deterministic simulation).
//
// Once ctx is cancelled no new unit starts and no further experiment is
// emitted; in-flight units finish (a simulation replay is not divisible)
// and the call returns ctx's error. The experiments already written form a
// clean prefix of the output.
func Run(ctx context.Context, out io.Writer, p Params, workers int, arts *sweep.Artifacts, ids ...string) error {
	exps := experiments
	if len(ids) > 0 {
		exps = make([]experiment, len(ids))
		for i, id := range ids {
			s, ok := lookup(id)
			if !ok {
				return fmt.Errorf("exp: unknown experiment %q", id)
			}
			exps[i] = s
		}
	}
	workers = pool.NormWorkers(workers)
	var w *Workbench
	if arts != nil {
		w = NewWorkbenchOn(ctx, p, arts)
	} else {
		w = NewWorkbench(ctx, p, workers)
	}
	if workers == 1 {
		return runSerial(ctx, w, out, exps)
	}
	return runPooled(ctx, w, out, exps, workers)
}

// lookup finds an experiment by id.
func lookup(id string) (experiment, bool) {
	for _, s := range experiments {
		if s.id == id {
			return s, true
		}
	}
	return experiment{}, false
}

// runSerial renders the experiments one after another on the calling
// goroutine.
func runSerial(ctx context.Context, w *Workbench, out io.Writer, exps []experiment) (err error) {
	defer recoverCancel(&err)
	for _, s := range exps {
		if err := ctx.Err(); err != nil {
			return err
		}
		units, render := s.plan(w)
		for _, unit := range units {
			unit()
		}
		render(out)
	}
	return ctx.Err()
}

// runPooled runs the experiments' units on the pool and emits the
// experiments in order.
func runPooled(ctx context.Context, w *Workbench, out io.Writer, exps []experiment, workers int) error {
	// Jobs run on the pool in submission order; experiments are emitted in
	// their own order, each as soon as its units have finished. The two
	// orders are independent — single-flight memoization makes artifact
	// content order-free.
	var jobs []func()
	// submit queues a job and returns a wait for its completion. A
	// cancelled run never dispatches the remaining jobs, so waiters also
	// unblock on ctx. Cancellation panics inside a job are recovered here
	// — the emission loop aborts before rendering anything the job left
	// half-built.
	submit := func(job func()) (wait func()) {
		done := make(chan struct{})
		jobs = append(jobs, func() {
			defer close(done)
			var cancelled error
			defer recoverCancel(&cancelled)
			job()
		})
		return func() {
			select {
			case <-done:
			case <-ctx.Done():
			}
		}
	}

	// Warm-up units first: the per-(workload, mechanism) replays are the
	// shared dependencies of every replay-reading experiment, so computing
	// them as their own units keeps the heavy consumers from blocking on
	// each other's single-flight computations.
	warm := map[sched.Mechanism]bool{}
	for _, s := range exps {
		for _, mech := range s.replays {
			warm[mech] = true
		}
	}
	for _, name := range Workloads {
		for _, mech := range sched.Mechanisms {
			if warm[mech] {
				submit(func() { w.Result(name, mech) })
			}
		}
	}
	type step struct {
		waits  []func()
		render func(io.Writer)
	}
	steps := make([]step, len(exps))
	for i, s := range exps {
		units, render := s.plan(w)
		steps[i].render = render
		for _, unit := range units {
			steps[i].waits = append(steps[i].waits, submit(unit))
		}
	}

	poolDone := make(chan struct{})
	go func() {
		defer close(poolDone)
		_ = pool.RunCtx(ctx, workers, len(jobs), func(i int) { jobs[i]() })
	}()
	for _, st := range steps {
		for _, wait := range st.waits {
			wait()
		}
		if err := ctx.Err(); err != nil {
			<-poolDone // in-flight units drain; undispatched ones never start
			return err
		}
		st.render(out)
	}
	<-poolDone // warm-up jobs may still be draining after the last experiment
	return ctx.Err()
}
