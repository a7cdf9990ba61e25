// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 4). Each benchmark runs its experiment end to end and reports
// the headline metric through testing.B metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. Benchmarks default to the reduced
// QuickParams sizes; set ADDICT_FULL=1 for the paper-faithful 1000-trace
// runs (several minutes).
package addict_test

import (
	"context"
	"io"
	"os"
	"runtime"
	"testing"

	"addict"
	"addict/internal/exp"
	"addict/internal/sched"
)

func benchParams() exp.Params {
	if os.Getenv("ADDICT_FULL") != "" {
		return exp.DefaultParams()
	}
	p := exp.QuickParams()
	return p
}

// sharedBench caches one workbench across benchmarks within a run.
var sharedBench *exp.Workbench

func bench(b *testing.B) *exp.Workbench {
	b.Helper()
	if sharedBench == nil {
		sharedBench = exp.NewWorkbench(benchParams())
	}
	return sharedBench
}

func BenchmarkTable1SystemParameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Table1(io.Discard, addict.ShallowMachine())
	}
}

func BenchmarkFig1OperationFootprints(b *testing.B) {
	w := bench(b)
	w.ProfileSet("TPC-C") // setup outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := exp.Fig1(w)
		b.ReportMetric(float64(r.OpFootprint[2]), "probe-blocks") // OpIndexProbe=1? keep stable metric
	}
}

func BenchmarkFig2FootprintOverlap(b *testing.B) {
	w := bench(b)
	for _, name := range exp.Workloads {
		w.ProfileSet(name)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range exp.Workloads {
			r := exp.Fig2(w, name)
			if name == "TPC-B" {
				b.ReportMetric(r.MixInstr.CommonShare()*100, "instr-common-%")
				b.ReportMetric(r.MixData.CommonShare()*100, "data-common-%")
			}
		}
	}
}

func BenchmarkFig3ReuseProfile(b *testing.B) {
	w := bench(b)
	w.ProfileSet("TPC-B")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := exp.Fig3(w)
		b.ReportMetric(r.TxnInstr[len(r.TxnInstr)-1].AvgReuse, "always-band-reuse")
	}
}

func BenchmarkFig4MigrationPointStability(b *testing.B) {
	w := bench(b)
	w.Profile("TPC-B")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := exp.Fig4(w, "TPC-B")
		if len(r.At10k) > 0 {
			b.ReportMetric(r.At10k[0].MatchRate()*100, "stability-%")
		}
	}
}

func BenchmarkFig5CacheMisses(b *testing.B) {
	w := bench(b)
	for i := 0; i < b.N; i++ {
		var addictL1I float64
		for _, name := range exp.Workloads {
			c := exp.Compare(w, name)
			if name == "TPC-B" {
				addictL1I = c.Row(sched.ADDICT).L1IN
			}
		}
		b.ReportMetric(addictL1I, "ADDICT-L1I-norm")
	}
}

func BenchmarkFig6Performance(b *testing.B) {
	w := bench(b)
	for i := 0; i < b.N; i++ {
		var cyc float64
		for _, name := range exp.Workloads {
			c := exp.Compare(w, name)
			if name == "TPC-B" {
				cyc = c.Row(sched.ADDICT).CyclesN
			}
		}
		b.ReportMetric(cyc, "ADDICT-cycles-norm")
	}
}

func BenchmarkFig7BatchSizeSweep(b *testing.B) {
	w := bench(b)
	w.Result("TPC-B", sched.Baseline)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := exp.Fig7(w, "TPC-B")
		b.ReportMetric(r.Points[len(r.Points)-1].CyclesN, "batch32-cycles-norm")
	}
}

func BenchmarkFig8aDeepHierarchy(b *testing.B) {
	w := bench(b)
	w.Profile("TPC-B")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := exp.Fig8a(w, "TPC-B")
		b.ReportMetric(r.CyclesN, "deep-cycles-norm")
	}
}

func BenchmarkFig8bPower(b *testing.B) {
	w := bench(b)
	for i := 0; i < b.N; i++ {
		c := exp.Compare(w, "TPC-B")
		b.ReportMetric(c.Row(sched.ADDICT).PowerN, "ADDICT-power-norm")
	}
}

func BenchmarkFig9Overheads(b *testing.B) {
	w := bench(b)
	for i := 0; i < b.N; i++ {
		c := exp.Compare(w, "TPC-B")
		b.ReportMetric(c.Row(sched.ADDICT).SwitchesPerKI, "ADDICT-moves-per-ki")
		b.ReportMetric(c.Row(sched.ADDICT).OverheadShare*100, "ADDICT-overhead-%")
	}
}

func BenchmarkAblations(b *testing.B) {
	w := bench(b)
	for i := 0; i < b.N; i++ {
		r := exp.Ablate(w, "TPC-B")
		if len(r.Rows) > 0 {
			b.ReportMetric(r.Rows[0].CyclesN, "ADDICT-cycles-norm")
		}
	}
}

// BenchmarkRunAllSerial regenerates the entire report serially — the
// baseline the parallel engine is measured against.
func BenchmarkRunAllSerial(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		exp.RunAll(io.Discard, p)
	}
}

// BenchmarkRunAllParallel regenerates the entire report on a worker pool
// sized to the available CPUs. Output is byte-identical to the serial run
// (see TestRunAllParallelMatchesSerial); wall-clock drops roughly with the
// core count because the per-(workload, mechanism) simulations, the
// per-figure analyses, and sharded trace generation all spread across the
// pool. Compare against BenchmarkRunAllSerial:
//
//	go test -bench 'BenchmarkRunAll' -benchtime 1x
func BenchmarkRunAllParallel(b *testing.B) {
	p := benchParams()
	workers := runtime.GOMAXPROCS(0)
	for i := 0; i < b.N; i++ {
		exp.RunAllParallel(io.Discard, p, workers)
	}
}

// BenchmarkTraceGenerationSharded gauges the worker-count-independent
// sharded generator at full pool width.
func BenchmarkTraceGenerationSharded(b *testing.B) {
	for i := 0; i < b.N; i++ {
		set, err := addict.NewEngine(addict.WithSeed(1), addict.WithScale(0.25)).
			GenerateTraces(context.Background(), "TPC-B", 256)
		if err != nil {
			b.Fatalf("sharded generation failed: %v", err)
		}
		if len(set.Traces) != 256 {
			b.Fatalf("sharded generation returned %d traces, want 256", len(set.Traces))
		}
	}
}

// BenchmarkTraceGeneration gauges trace emission (the reproduction's Pin
// substitute) from an already-built TPC-B database: it times neither
// database population nor the shard warm-up, which are most of what a
// sharded request pays. BenchmarkShard and BenchmarkPopulate* in
// internal/workload time those.
func BenchmarkTraceGeneration(b *testing.B) {
	w := addict.NewTPCB(1, 0.25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := addict.GenerateTraces(w, 50)
		if len(set.Traces) != 50 {
			b.Fatal("bad trace count")
		}
	}
}

// BenchmarkProfiling gauges Algorithm 1 on its own.
func BenchmarkProfiling(b *testing.B) {
	w := bench(b)
	set := w.ProfileSet("TPC-B")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := addict.FindMigrationPoints(set)
		if len(p.Txns) == 0 {
			b.Fatal("empty profile")
		}
	}
}
