// Command characterize runs the paper's Section 2 memory characterization
// (Figures 1-3) — operation footprints, instruction/data overlap, and
// within-instance reuse — on generated traces or a saved trace file, and
// the synthetic-workload characterization (rankings of all six mechanism
// families across the shipped scenario presets).
//
// Usage:
//
//	characterize                       # all three figures on fresh traces
//	characterize -workload TPC-E       # overlap analysis of one workload
//	characterize -traces 500 -scale 0.5
//	characterize -synth                # mechanism rankings across presets
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"time"

	"addict"
	"addict/cmd/internal/sigctx"
)

func main() {
	var (
		name   = flag.String("workload", "", "restrict Figure 2 to one benchmark (default: all)")
		traces = flag.Int("traces", 1000, "traces per workload")
		scale  = flag.Float64("scale", 1.0, "database scale factor")
		seed   = flag.Int64("seed", 42, "workload seed")
		synth  = flag.Bool("synth", false, "run the synthetic-workload characterization (mechanism rankings across presets) instead of Figures 1-3")
	)
	flag.Parse()

	p := addict.DefaultExperimentParams()
	p.ProfileTraces = *traces
	p.Scale = *scale
	p.Seed = *seed

	// Ctrl-C cancels the characterization between artifact computations:
	// the figures already rendered flush and the process exits non-zero.
	ctx, stop := sigctx.Context(time.Second)
	defer stop()

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	ids := []string{"fig1", "fig2", "fig3"}
	if *synth {
		// The ranking experiment replays evaluation windows too; keep both
		// trace counts in step with -traces.
		p.EvalTraces = *traces
		ids = []string{"synthchar"}
	}
	if *name != "" {
		// Single-workload overlap only (fig2 covers all three otherwise).
		if _, err := addict.NewWorkload(*name, *seed, 0.01); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	eng := addict.NewEngine(addict.WithSeed(p.Seed), addict.WithScale(p.Scale),
		addict.WithTraceWindows(p.ProfileTraces, p.EvalTraces, p.StabilityTraces),
		addict.WithMachine(p.Machine), addict.WithWorkers(1))
	if err := eng.Experiments(ctx, out, ids...); err != nil {
		if ctx.Err() != nil {
			out.Flush()
			sigctx.Exit("characterize")
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
