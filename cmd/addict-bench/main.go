// Command addict-bench regenerates the paper's evaluation: every table and
// figure (Table 1, Figures 1-9) plus the ablations, or any single
// experiment by id. With -json it instead runs the replay-core benchmark
// harness (internal/bench) and emits a machine-readable performance report
// — the BENCH_*.json trajectory every PR is measured against.
//
// Usage:
//
//	addict-bench                 # full report, paper-faithful sizes
//	addict-bench -quick          # reduced sizes (~1/4 traces)
//	addict-bench -parallel 8     # full report on an 8-worker pool
//	addict-bench -exp fig5       # a single experiment
//	addict-bench -traces 500     # override trace counts
//	addict-bench -list           # list experiment ids
//	addict-bench -json BENCH.json                     # benchmark harness
//	addict-bench -json BENCH_10.json -baseline BENCH_9.json
//	addict-bench -json BENCH_ci.json -baseline BENCH_9.json \
//	    -max-cell-regress 0.25 -max-regress 0.5 -verdict verdict.txt
//
// The full report runs on a worker pool (-parallel, default: all available
// CPUs) and is byte-identical to the serial run (-parallel 1) — see the
// determinism notes in package addict. The benchmark harness is strictly
// serial so its cells are comparable across runs; -baseline embeds a
// previous report (a BENCH_*.json or its "current" section) and records
// the aggregate and per-cell events/sec speedups against it — refusing
// baselines that did not measure the same thing (different sizes,
// measurement bounds, or cell sets). The gate flags turn the harness into
// the CI regression gate: -max-cell-regress bounds every (workload ×
// mechanism) cell's *normalized* ratio — each cell's events/sec divided by
// the same run's Baseline-mechanism cell on the same workload, so the
// runner's absolute speed cancels out — and fails on the worst cell;
// -max-regress bounds the events-weighted aggregate speedup (machine-
// dependent; kept as a secondary signal); -max-alloc-regress bounds every
// cell's allocs/event and bytes/event growth over the baseline (allocation
// counts are machine-independent without any normalization). The per-cell
// verdict table goes to stderr, into the JSON report, and to the -verdict
// file when given.
//
// Ctrl-C cancels either mode between work items: the full report flushes
// the sections already rendered as a clean partial report, the harness
// aborts without writing a (non-comparable) partial JSON, and the process
// exits with a non-zero status.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"addict"
	"addict/cmd/internal/sigctx"
)

func main() {
	var (
		expID           = flag.String("exp", "", "single experiment id (default: run everything)")
		quick           = flag.Bool("quick", false, "reduced trace counts and database scale")
		traces          = flag.Int("traces", 0, "override profiling/evaluation trace counts")
		scale           = flag.Float64("scale", 0, "override database scale factor")
		seed            = flag.Int64("seed", 0, "override workload seed")
		parallel        = flag.Int("parallel", 0, "worker-pool size for trace generation and the full report (<1 = all CPUs, 1 = serial; output is identical)")
		list            = flag.Bool("list", false, "list experiment ids and exit")
		jsonOut         = flag.String("json", "", "run the replay benchmark harness and write the JSON report to this file (- = stdout)")
		baseline        = flag.String("baseline", "", "previous BENCH_*.json (or bare report) to embed and compute the speedups against (with -json)")
		maxRegress      = flag.Float64("max-regress", 0, "fail when aggregate events/sec drops more than this fraction below the baseline (machine-dependent secondary check; requires -json and -baseline; 0 disables)")
		maxCellRegress  = flag.Float64("max-cell-regress", 0, "fail when any (workload x mechanism) cell's Baseline-normalized ratio drops more than this fraction below the baseline's (machine-independent; fails on the worst cell; requires -json and -baseline; 0 disables) — the CI bench-regression gate")
		maxAllocRegress = flag.Float64("max-alloc-regress", 0, "fail when any cell's allocs/event or bytes/event grow more than this fraction above the baseline (plus a small additive slack; machine-independent; requires -json and -baseline; 0 disables)")
		verdictOut      = flag.String("verdict", "", "also write the per-cell gate verdict table to this file (with a gate flag)")
		storeDir        = flag.String("store", "", "on-disk artifact store directory (empty = memory-only); repeated runs warm-start generation and profiling from it (measured replay cells are never persisted results)")
		storeBudget     = flag.Int64("store-budget", 0, "on-disk store size budget in bytes (<=0 = unbounded)")
	)
	flag.Parse()
	// The flag default 0 doubles as "not provided" for -seed and -scale,
	// which would make an explicit zero unexpressible — distinguish by
	// whether the flag was actually set.
	seedSet, scaleSet := false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			seedSet = true
		case "scale":
			scaleSet = true
		}
	})

	// Ctrl-C cancels the run between work items (generation shards, bench
	// cells, experiment sections): the sections already rendered flush as
	// a clean partial report and the process exits non-zero, promptly —
	// the watchdog bound stays inside the 2-second acceptance budget even
	// when an indivisible item (a full-scale replay) is in flight.
	ctx, stop := sigctx.Context(1500 * time.Millisecond)
	defer stop()

	if *jsonOut == "" {
		if *maxRegress != 0 || *maxCellRegress != 0 || *maxAllocRegress != 0 {
			fmt.Fprintln(os.Stderr, "addict-bench: -max-regress/-max-cell-regress/-max-alloc-regress require -json and -baseline")
			os.Exit(2)
		}
		if *list {
			for _, id := range addict.ExperimentIDs() {
				fmt.Println(id)
			}
			return
		}
	}

	// The session: the full report starts from the paper-faithful (or
	// -quick) sizes, the harness from the Engine defaults every BENCH_*.json
	// trajectory point uses; the size flags override either.
	var engOpts []addict.EngineOption
	if *jsonOut == "" {
		p := addict.DefaultExperimentParams()
		if *quick {
			p = addict.QuickExperimentParams()
		}
		engOpts = append(engOpts, addict.WithSeed(p.Seed), addict.WithScale(p.Scale),
			addict.WithTraceWindows(p.ProfileTraces, p.EvalTraces, p.StabilityTraces),
			addict.WithMachine(p.Machine))
	} else {
		engOpts = append(engOpts, addict.WithProgress(os.Stderr))
	}
	engOpts = append(engOpts, addict.WithWorkers(*parallel))
	if n := *traces; n > 0 {
		engOpts = append(engOpts, addict.WithTraceWindows(n, n, 10*n))
	}
	if scaleSet {
		if *scale <= 0 {
			fmt.Fprintln(os.Stderr, "addict-bench: -scale must be > 0")
			os.Exit(2)
		}
		engOpts = append(engOpts, addict.WithScale(*scale))
	}
	if seedSet {
		engOpts = append(engOpts, addict.WithSeed(*seed))
	}
	if *storeDir != "" {
		engOpts = append(engOpts, addict.WithStore(*storeDir, *storeBudget))
	}
	eng := addict.NewEngine(engOpts...)
	if err := eng.StoreErr(); err != nil {
		fmt.Fprintln(os.Stderr, "addict-bench:", err)
		os.Exit(1)
	}

	if *jsonOut != "" {
		h := harnessFlags{
			jsonOut:         *jsonOut,
			baselinePath:    *baseline,
			maxRegress:      *maxRegress,
			maxCellRegress:  *maxCellRegress,
			maxAllocRegress: *maxAllocRegress,
			verdictOut:      *verdictOut,
		}
		if err := runBenchHarness(ctx, eng, h); err != nil {
			if ctx.Err() != nil {
				sigctx.Exit("addict-bench")
			}
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	out := bufio.NewWriter(os.Stdout)
	start := time.Now()
	var ids []string
	if *expID != "" {
		ids = []string{*expID}
	}
	err := eng.Experiments(ctx, out, ids...)
	if err == nil {
		fmt.Fprintf(out, "\n(completed in %v)\n", time.Since(start).Round(time.Millisecond))
	}
	if ferr := out.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		if ctx.Err() != nil {
			sigctx.Exit("addict-bench")
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// harnessFlags carries the resolved -json mode flags.
type harnessFlags struct {
	jsonOut         string
	baselinePath    string
	maxRegress      float64
	maxCellRegress  float64
	maxAllocRegress float64
	verdictOut      string
}

// runBenchHarness runs the internal/bench replay harness on the session
// and writes the BENCH_*.json file. A session without size overrides runs
// the standard (comparable) sizes.
// A non-zero maxCellRegress/maxRegress turns the run into the regression
// gate: maxCellRegress bounds every cell's machine-independent normalized
// ratio (failing on the worst cell), maxRegress bounds the aggregate
// events/sec speedup. An incomparable baseline — different configuration,
// measurement bounds, or cell set — is refused rather than judged.
func runBenchHarness(ctx context.Context, eng *addict.Engine, h harnessFlags) error {
	gating := h.maxRegress != 0 || h.maxCellRegress != 0 || h.maxAllocRegress != 0
	if h.maxRegress < 0 || h.maxRegress >= 1 {
		return fmt.Errorf("-max-regress %v outside [0, 1)", h.maxRegress)
	}
	if h.maxCellRegress < 0 || h.maxCellRegress >= 1 {
		return fmt.Errorf("-max-cell-regress %v outside [0, 1)", h.maxCellRegress)
	}
	if h.maxAllocRegress < 0 {
		return fmt.Errorf("-max-alloc-regress %v negative", h.maxAllocRegress)
	}
	if gating && h.baselinePath == "" {
		return fmt.Errorf("-max-regress/-max-cell-regress/-max-alloc-regress require -baseline")
	}
	if h.verdictOut != "" && !gating {
		return fmt.Errorf("-verdict requires a gate flag (-max-cell-regress or -max-regress)")
	}
	cfg := addict.DefaultBenchConfig()

	var base *addict.BenchReport
	if h.baselinePath != "" {
		bf, err := os.Open(h.baselinePath)
		if err != nil {
			return err
		}
		parsed, err := addict.ReadBenchFile(bf)
		bf.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", h.baselinePath, err)
		}
		base = parsed.Current
	}

	start := time.Now()
	var (
		file    *addict.BenchFile
		verdict *addict.BenchVerdict
		err     error
	)
	if gating {
		file, verdict, err = eng.GateBench(ctx, cfg, base, addict.BenchGateConfig{
			MaxCellRegress:  h.maxCellRegress,
			MaxRegress:      h.maxRegress,
			MaxAllocRegress: h.maxAllocRegress,
		})
		if err != nil {
			return fmt.Errorf("gate vs %s: %w", h.baselinePath, err)
		}
	} else {
		var rep *addict.BenchReport
		rep, err = eng.Bench(ctx, cfg)
		if err != nil {
			return err
		}
		file, err = addict.CompareBench(base, rep)
		if err != nil {
			return fmt.Errorf("baseline %s: %w", h.baselinePath, err)
		}
	}

	w := os.Stdout
	if h.jsonOut != "-" {
		f, err := os.Create(h.jsonOut)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := file.WriteJSON(w); err != nil {
		return err
	}
	rep := file.Current
	fmt.Fprintf(os.Stderr, "replay: %.2fM events/sec (%.1f ns/event)",
		rep.Replay.EventsPerSec/1e6, rep.Replay.NsPerEvent)
	if file.SpeedupEventsPerSec > 0 {
		fmt.Fprintf(os.Stderr, ", %.2fx vs baseline", file.SpeedupEventsPerSec)
	}
	fmt.Fprintf(os.Stderr, " (%v)\n", time.Since(start).Round(time.Millisecond))
	if verdict != nil {
		if err := verdict.WriteTable(os.Stderr); err != nil {
			return err
		}
		if h.verdictOut != "" {
			vf, err := os.Create(h.verdictOut)
			if err != nil {
				return err
			}
			werr := verdict.WriteTable(vf)
			if cerr := vf.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return werr
			}
		}
		if !verdict.Pass {
			return fmt.Errorf("performance regression: %s", verdict.Summary())
		}
	}
	return nil
}
