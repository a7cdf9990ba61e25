// Command tracegen generates transaction traces from a TPC workload or a
// declarative synthetic workload and writes them in the binary trace
// format — the reproduction's counterpart of the paper's Pin-based trace
// collection (Section 4.1).
//
// Usage:
//
//	tracegen -workload TPC-C -n 1000 -o tpcc.traces
//	tracegen -workload TPC-B -n 11000 -seed 7 -o tpcb.traces
//	tracegen -synth zipf-hot-rw -n 1000 -o zipf.traces
//	tracegen -synth synth:uniform-ro+w0.3 -parallel 8 -o mix.traces
//	tracegen -synth scenario.json -n 2000 -o scenario.traces
//	tracegen -synth-presets
//
// -synth accepts a shipped preset name ("zipf-hot-rw"), an encoded
// workload name with overrides ("synth:<preset>[+z<theta>][+w<frac>]
// [+h<keys>]"), or a path to a spec JSON file (see SynthSpec). -workload
// resolves through the one workload-name resolver, so encoded synth:...
// names work there too. All generation is sharded: the output is
// byte-identical for every -parallel value, and Ctrl-C cancels between
// shards with a non-zero exit instead of writing a truncated file.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"addict"
	"addict/cmd/internal/sigctx"
	"addict/internal/wire"
)

func main() {
	var (
		name     = flag.String("workload", "TPC-C", "workload name: TPC-B, TPC-C, TPC-E, or an encoded synth:... name")
		synth    = flag.String("synth", "", "synthetic workload: preset name, synth:... name, or spec JSON file (overrides -workload)")
		n        = flag.Int("n", 1000, "number of transaction traces")
		seed     = flag.Int64("seed", 42, "workload seed")
		scale    = flag.Float64("scale", 1.0, "database scale factor")
		parallel = flag.Int("parallel", 0, "worker-pool size for sharded generation (<1 = all CPUs, 1 = serial; output is identical)")
		out      = flag.String("o", "", "output file (default: stdout)")
		presets  = flag.Bool("synth-presets", false, "list synthetic presets and exit")
	)
	flag.Parse()

	if *presets {
		for _, p := range addict.SynthPresets() {
			fmt.Println(p)
		}
		return
	}

	// Ctrl-C cancels generation between shards and exits non-zero without
	// writing a truncated trace file.
	ctx, stop := sigctx.Context(time.Second)
	defer stop()
	eng := addict.NewEngine(addict.WithSeed(*seed), addict.WithScale(*scale),
		addict.WithWorkers(*parallel))

	var (
		set *addict.TraceSet
		err error
	)
	start := time.Now()
	if *synth != "" {
		var spec addict.SynthSpec
		spec, err = loadSynthSpec(*synth)
		if err == nil {
			set, err = eng.SynthTraces(ctx, spec, *n)
		}
	} else {
		// The workload-name resolver takes both name spaces, so -workload
		// accepts encoded synthetic names too.
		set, err = eng.GenerateTraces(ctx, *name, *n)
	}
	if err != nil {
		if ctx.Err() != nil {
			sigctx.Exit("tracegen")
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	f := os.Stdout
	if *out != "" {
		f, err = os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
	}
	if err := addict.WriteTraces(f, set); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var events, instr uint64
	for _, t := range set.Traces {
		events += uint64(len(t.Events))
		instr += t.Instructions()
	}
	fmt.Fprintf(os.Stderr, "%s: %d traces, %d events, %d instructions (%v)\n",
		set.Workload, len(set.Traces), events, instr, time.Since(start).Round(time.Millisecond))
}

// loadSynthSpec resolves the -synth argument: a readable file is parsed as
// a spec JSON (unknown fields rejected); anything else is a preset or
// encoded workload name.
func loadSynthSpec(arg string) (addict.SynthSpec, error) {
	data, ferr := os.ReadFile(arg)
	if ferr != nil {
		if strings.HasSuffix(arg, ".json") {
			// An explicit spec file that cannot be read is an error, not a
			// preset-name fallback.
			return addict.SynthSpec{}, ferr
		}
		return addict.ParseSynthWorkload(arg)
	}
	var spec addict.SynthSpec
	if err := wire.Unmarshal(data, &spec); err != nil {
		return addict.SynthSpec{}, fmt.Errorf("%s: %w", arg, err)
	}
	return spec, nil
}
