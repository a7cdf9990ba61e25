// Command addict-sweep runs declarative parameter sweeps over the ADDICT
// reproduction: a grid of machine parameters (L1-I/LLC geometry, core
// count, miss latencies), workloads, scheduling mechanisms, thread counts,
// and admission limits, executed on a worker pool with byte-identical
// output for every -parallel value.
//
// Usage:
//
//	addict-sweep -grid 'l1i=16K,32K,64K; mech=Baseline,ADDICT; threads=4,8,16'
//	addict-sweep -grid 'cores=4,8,16; workload=TPC-C' -format csv
//	addict-sweep -grid 'synth=zipf-hot-rw; theta=0.6,0.9,0.99; write=0.1,0.5,0.9'
//	addict-sweep -spec sweep.json -format jsonl -parallel 8
//	addict-sweep -axes      # list grid axis names
//
// Distributed mode splits one grid across processes rendezvousing on a
// shared artifact store. The coordinator owns the grid and the merged
// output (byte-identical to a single-process run); workers join it by URL
// and compute leased units:
//
//	addict-sweep -grid '...' -serve-workers :8391 -store /shared/store -format jsonl
//	addict-sweep -join http://coordinator:8391 -store /shared/store   # on each worker machine
//
// The coordinator requeues units whose workers crash (lease timeout) and
// re-dispatches stragglers near the tail, so losing workers costs wall
// clock, never rows. -local-workers controls how many workers the
// coordinator process itself contributes (default 1; 0 waits entirely for
// remote joiners), and -dist-summary writes the per-worker counters
// (units leased/completed/requeued, store hits) as JSON after the run.
//
// The -grid flag is a compact spec: semicolon-separated axes, each
// "name=v1,v2,...". Sizes take K/M suffixes. The -spec flag loads a full
// sweep.Spec as JSON; -grid entries overlay it. Base parameters (seed,
// scale, trace counts) default to the quick evaluation sizes and are
// overridable by flags. Ctrl-C cancels the sweep between units: the rows
// already computed flush as a clean partial table and the command exits
// with a non-zero status.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"addict"
	"addict/cmd/internal/sigctx"
	"addict/internal/wire"
)

// axisHelp documents every -grid axis.
var axisHelp = []struct{ name, desc string }{
	{"workload", "benchmark names (TPC-B, TPC-C, TPC-E)"},
	{"mech", "scheduling mechanisms (Baseline, STREX, SLICC, ADDICT, HTMSPEC, CHAIN)"},
	{"l1i", "L1-I sizes in bytes (K/M suffixes: 16K, 32K)"},
	{"l1iways", "L1-I associativities"},
	{"llc", "shared-cache total sizes in bytes (8M, 16M)"},
	{"llcways", "shared-cache associativities"},
	{"cores", "core counts (power of two; LLC rescales per-core)"},
	{"hit", "shared-cache hit latencies in cycles"},
	{"mem", "memory latencies in cycles"},
	{"threads", "batch sizes / offered concurrency (0 = core count)"},
	{"admit", "admission caps (0 = mechanism default)"},
	{"synth", "synthetic-workload preset the synth axes vary (one value; see tracegen -synth-presets)"},
	{"theta", "zipfian skew exponents in (0, 1) (synth axis)"},
	{"write", "base write fractions in [0, 1] (synth axis)"},
	{"hot", "hot-set sizes in keys (synth axis)"},
}

func main() {
	var (
		grid     = flag.String("grid", "", "compact grid spec: 'axis=v1,v2;axis=v1' (see -axes)")
		specPath = flag.String("spec", "", "JSON sweep spec file (grid axes overlay it)")
		format   = flag.String("format", "table", "output format: table, csv, or jsonl")
		parallel = flag.Int("parallel", 0, "worker-pool size (<1 = all CPUs, 1 = serial; output is identical)")
		seed     = flag.Int64("seed", 0, "override workload seed")
		scale    = flag.Float64("scale", 0, "override database scale factor")
		traces   = flag.Int("traces", 0, "override profiling/evaluation trace counts")
		deep     = flag.Bool("deep", false, "use the Section 4.6 deep hierarchy as the base machine")
		axes     = flag.Bool("axes", false, "list grid axis names and exit")

		storeDir    = flag.String("store", "", "on-disk artifact store directory (empty = memory-only); repeated sweeps warm-start from it")
		storeBudget = flag.Int64("store-budget", 0, "on-disk store size budget in bytes (<=0 = unbounded)")

		serveWorkers = flag.String("serve-workers", "", "coordinate a distributed sweep: listen address for workers (e.g. :8391)")
		localWorkers = flag.Int("local-workers", 1, "with -serve-workers: in-process workers the coordinator contributes (0 = remote only)")
		leaseTimeout = flag.Duration("lease-timeout", 0, "with -serve-workers: crash-detection lease timeout (0 = default 60s)")
		distSummary  = flag.String("dist-summary", "", "with -serve-workers: write per-worker counters as JSON to this file after the run")
		joinURL      = flag.String("join", "", "work for the coordinator at this URL (grid/spec come from it; -store and -parallel apply)")
	)
	flag.Parse()

	if *axes {
		for _, a := range axisHelp {
			fmt.Printf("%-9s %s\n", a.name, a.desc)
		}
		return
	}

	if *joinURL != "" {
		if *serveWorkers != "" {
			fatal(fmt.Errorf("-join and -serve-workers are mutually exclusive"))
		}
		runWorker(*joinURL, *storeDir, *storeBudget, *parallel)
		return
	}

	var spec addict.SweepSpec
	if *specPath != "" {
		data, err := os.ReadFile(*specPath)
		if err != nil {
			fatal(err)
		}
		if err := wire.Unmarshal(data, &spec); err != nil {
			fatal(fmt.Errorf("%s: %w", *specPath, err))
		}
	}
	if *grid != "" {
		if err := applyGrid(&spec, *grid); err != nil {
			fatal(err)
		}
	}
	// Nonzero overrides pass through unconditionally so spec validation
	// rejects bad values instead of silently running the defaults.
	if *seed != 0 {
		spec.Seed = *seed
	}
	if *scale != 0 {
		spec.Scale = *scale
	}
	if *traces != 0 {
		spec.ProfileTraces = *traces
		spec.EvalTraces = *traces
	}
	if *deep {
		spec.Deep = true
	}

	// Ctrl-C cancels the sweep between units: the rows already emitted
	// flush as a clean partial table and the process exits non-zero,
	// promptly (a watchdog forces the exit if cooperative unwinding
	// overruns the grace period).
	ctx, stop := sigctx.Context(time.Second)
	defer stop()

	opts := []addict.EngineOption{addict.WithWorkers(*parallel)}
	if *storeDir != "" {
		opts = append(opts, addict.WithStore(*storeDir, *storeBudget))
	}
	eng := addict.NewEngine(opts...)
	if err := eng.StoreErr(); err != nil {
		// A requested store that cannot open is a setup error, not a silent
		// downgrade to a cold run.
		fatal(err)
	}
	out := bufio.NewWriter(os.Stdout)
	var err error
	if *serveWorkers != "" {
		var sum addict.DistSummary
		sum, err = eng.SweepDistributed(ctx, out, spec, *format, addict.DistConfig{
			Listen:       *serveWorkers,
			LocalWorkers: *localWorkers,
			LeaseTimeout: *leaseTimeout,
			OnListen: func(addr string) {
				fmt.Fprintf(os.Stderr, "addict-sweep: coordinating on http://%s (join with: addict-sweep -join http://%s -store DIR)\n", addr, addr)
			},
		})
		if *distSummary != "" {
			// The summary is diagnostic and valid even after a failed run;
			// a failed write must not mask the run's own error.
			if werr := writeSummary(*distSummary, sum); werr != nil && err == nil {
				err = werr
			}
		}
	} else {
		err = eng.Sweep(ctx, out, spec, *format)
	}
	// A failed flush (full disk, closed pipe) must not exit 0 with a
	// truncated sweep.
	if ferr := out.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		if ctx.Err() != nil {
			sigctx.Exit("addict-sweep")
		}
		fatal(err)
	}
}

// runWorker joins a coordinator and computes leased units until the grid
// is done. The grid comes from the coordinator; only execution-side flags
// (-store, -store-budget, -parallel) apply here.
func runWorker(url, storeDir string, storeBudget int64, parallel int) {
	ctx, stop := sigctx.Context(time.Second)
	defer stop()
	host, _ := os.Hostname()
	n, err := addict.JoinSweep(ctx, url, addict.DistWorkerOptions{
		Name:        host,
		StoreDir:    storeDir,
		StoreBudget: storeBudget,
		Workers:     parallel,
	})
	if err != nil {
		if ctx.Err() != nil {
			sigctx.Exit("addict-sweep")
		}
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "addict-sweep: worker done, %d units completed\n", n)
}

// writeSummary writes the coordinator's per-worker counters as indented
// JSON (the CI dist-smoke artifact).
func writeSummary(path string, sum addict.DistSummary) error {
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "addict-sweep:", err)
	os.Exit(1)
}

// applyGrid parses a compact grid string into the spec. Axes are separated
// by ";", each "name=v1,v2,...".
func applyGrid(spec *addict.SweepSpec, grid string) error {
	for _, clause := range strings.Split(grid, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, vals, ok := strings.Cut(clause, "=")
		if !ok {
			return fmt.Errorf("grid clause %q: want axis=v1,v2,...", clause)
		}
		name = strings.TrimSpace(strings.ToLower(name))
		var values []string
		for _, v := range strings.Split(vals, ",") {
			if v = strings.TrimSpace(v); v != "" {
				values = append(values, v)
			}
		}
		if len(values) == 0 {
			return fmt.Errorf("grid axis %q: no values", name)
		}
		if err := setAxis(spec, name, values); err != nil {
			return err
		}
	}
	return nil
}

// setAxis assigns one parsed axis to its spec field.
func setAxis(spec *addict.SweepSpec, name string, values []string) error {
	switch name {
	case "workload", "workloads", "w":
		spec.Workloads = values
	case "mech", "mechs", "mechanism", "mechanisms":
		spec.Mechanisms = values
	case "l1i":
		return parseInts(values, parseSize, &spec.L1ISizes)
	case "l1iways":
		return parseInts(values, strconv.Atoi, &spec.L1IWays)
	case "llc", "shared":
		return parseInts(values, parseSize, &spec.SharedSizes)
	case "llcways", "sharedways":
		return parseInts(values, strconv.Atoi, &spec.SharedWays)
	case "cores":
		return parseInts(values, strconv.Atoi, &spec.Cores)
	case "hit":
		return parseUints(values, &spec.SharedHitCycles)
	case "mem":
		return parseUints(values, &spec.MemCycles)
	case "threads":
		return parseInts(values, strconv.Atoi, &spec.Threads)
	case "admit":
		return parseInts(values, strconv.Atoi, &spec.AdmitLimits)
	case "synth":
		if len(values) != 1 {
			return fmt.Errorf("grid axis %q: exactly one preset, got %v", name, values)
		}
		spec.Synth = values[0]
	case "theta", "thetas":
		return parseFloats(values, &spec.SynthThetas)
	case "write", "writefrac":
		return parseFloats(values, &spec.SynthWriteFracs)
	case "hot", "hotkeys":
		return parseInts(values, strconv.Atoi, &spec.SynthHotKeys)
	default:
		return fmt.Errorf("unknown grid axis %q (see -axes)", name)
	}
	return nil
}

func parseInts(values []string, parse func(string) (int, error), dst *[]int) error {
	out := make([]int, 0, len(values))
	for _, v := range values {
		n, err := parse(v)
		if err != nil {
			return fmt.Errorf("value %q: %v", v, err)
		}
		out = append(out, n)
	}
	*dst = out
	return nil
}

func parseFloats(values []string, dst *[]float64) error {
	out := make([]float64, 0, len(values))
	for _, v := range values {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return fmt.Errorf("value %q: %v", v, err)
		}
		out = append(out, f)
	}
	*dst = out
	return nil
}

func parseUints(values []string, dst *[]uint64) error {
	out := make([]uint64, 0, len(values))
	for _, v := range values {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return fmt.Errorf("value %q: %v", v, err)
		}
		out = append(out, n)
	}
	*dst = out
	return nil
}

// parseSize parses a byte count with an optional K/M suffix, rejecting a
// count whose scaled value does not fit an int (a wrapped product would
// silently sweep some unrelated size).
func parseSize(s string) (int, error) {
	mult := 1
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if n > math.MaxInt/mult || n < math.MinInt/mult {
		return 0, fmt.Errorf("size %s × %d overflows int", s, mult)
	}
	return n * mult, nil
}
