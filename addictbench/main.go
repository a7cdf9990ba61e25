// Command addictbench is the repository benchmark. One invocation runs one
// workload — cold-sweep, replay-grid or serve-warm (README.md says why each
// was chosen) — with inputs derived from --seed, measures for --seconds,
// checks every output, prints a human-readable report, and ends with one
// JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end set, measured untraced; with --trace 1 the
// run repeats the workload's work through the benchmark's own decomposition
// of the layer calls, with a span around each, and reports the per-layer
// set.
//
// Run it through run.sh, which builds this package and the addict-serve
// binary from the checkout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// config is one run's parameters. The sizes are the Engine session
// defaults; the smoke test shrinks them.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	serveBin string // addict-serve binary (serve-warm only)
	workDir  string // scratch space for stores and servers
	spanPath string // where a traced run writes its spans
	scale    float64
	traces   int // profiling and evaluation window size
	// serve-warm's offered load: schedule/profile reads and sweep requests
	// per second.
	readRate, computeRate float64
	// corruptDigest damages the reference row digest, so the smoke test can
	// prove a mismatch is counted as a failure.
	corruptDigest bool
}

// workers bounds every session and load-generator pool: the benchmark
// assumes a 2-CPU host and keeps that fixed so runs compare across hosts.
const workers = 2

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run accumulates one invocation's operation counts, failures and metric
// values.
type run struct {
	cfg       config
	out       io.Writer
	attempted int
	failed    int
	failures  []string
	vals      map[string]float64
	tr        *tracer // nil in untraced runs
}

// op counts one operation (a sweep, an HTTP request, an output check) and
// records it as failed when err is non-nil.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

func (r *run) set(name string, v float64) { r.vals[name] = v }

var workloads = map[string]func(context.Context, *run) error{
	"cold-sweep":  coldSweep,
	"replay-grid": replayGrid,
	"serve-warm":  serveWarm,
}

// execute runs one workload and assembles its result. The returned error
// covers runs that could not measure at all (no result is printed then).
func execute(ctx context.Context, cfg config, out io.Writer) (result, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want cold-sweep, replay-grid or serve-warm)", cfg.workload)
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return result{}, err
	}
	r := &run{cfg: cfg, out: out, vals: map[string]float64{}}
	if cfg.trace {
		r.tr = newTracer()
	}
	if err := fn(ctx, r); err != nil {
		return result{}, err
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	res.Correct = r.failed == 0 && r.attempted > 0
	fmt.Fprintf(out, "%s seed=%d trace=%v: attempted=%d failed=%d failed_share=%.4f\n",
		cfg.workload, cfg.seed, cfg.trace, r.attempted, r.failed, div(float64(r.failed), float64(r.attempted)))
	for _, f := range r.failures {
		fmt.Fprintf(out, "  FAILED: %s\n", f)
	}
	for _, s := range specs {
		v := r.vals[s.name]
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
		fmt.Fprintf(out, "  %-28s %16.6g %s\n", s.name, v, s.unit)
	}
	if r.tr != nil {
		if err := r.tr.dump(cfg.spanPath); err != nil {
			return result{}, fmt.Errorf("dump spans: %w", err)
		}
		fmt.Fprintf(out, "spans written to %s\n", cfg.spanPath)
	}
	return res, nil
}

func main() {
	cfg := config{scale: 0.5, traces: 250}
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "cold-sweep, replay-grid or serve-warm")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed (every input derives from it)")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.serveBin, "serve-bin", "", "addict-serve binary (serve-warm)")
	flag.StringVar(&cfg.workDir, "work-dir", ".bench_build/run", "scratch directory")
	flag.Float64Var(&cfg.readRate, "read-rate", 60, "serve-warm reads per second (for capacity measurements)")
	flag.Float64Var(&cfg.computeRate, "compute-rate", 2, "serve-warm sweep requests per second (for capacity measurements)")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if cfg.seed == 0 {
		// The Engine reads seed 0 as "use the default seed"; keep every
		// seed distinct.
		fmt.Fprintln(os.Stderr, "addictbench: --seed must be non-zero")
		os.Exit(2)
	}
	if cfg.seconds <= 0 || cfg.readRate <= 0 || cfg.computeRate <= 0 {
		fmt.Fprintln(os.Stderr, "addictbench: --seconds, --read-rate and --compute-rate must be positive")
		os.Exit(2)
	}

	// A private scratch directory per invocation, removed on exit.
	base := cfg.workDir
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "addictbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(base, cfg.workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "addictbench:", err)
		os.Exit(1)
	}
	cfg.workDir = dir
	cfg.spanPath = filepath.Join(base, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))

	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	res, err := execute(ctx, cfg, os.Stdout)
	cancel()
	_ = os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "addictbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "addictbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
