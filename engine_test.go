package addict

import (
	"bytes"
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"addict/internal/sweep"
)

// tinyEngine returns a session at micro sizes shared by the tests here.
func tinyEngine(workers int) *Engine {
	return NewEngine(WithSeed(5), WithScale(0.05), WithTraceWindows(60, 60, 80), WithWorkers(workers))
}

// TestExperimentIDsSorted is the regression test for the map-iteration-
// order bug: the ids must come back sorted, every call.
func TestExperimentIDsSorted(t *testing.T) {
	for i := 0; i < 10; i++ {
		ids := ExperimentIDs()
		if !sort.StringsAreSorted(ids) {
			t.Fatalf("ExperimentIDs() not sorted: %v", ids)
		}
		if len(ids) < 12 {
			t.Fatalf("only %d ids", len(ids))
		}
	}
}

// TestEngineSweepMatchesSweepRun: the session-free execution path
// (sweep.Run with a nil cache) and Engine.Sweep must emit byte-identical
// output for the same grid.
func TestEngineSweepMatchesSweepRun(t *testing.T) {
	spec := SweepSpec{
		Seed: 7, Scale: 0.05, ProfileTraces: 40, EvalTraces: 40,
		Workloads:  []string{"TPC-B"},
		Mechanisms: []string{"Baseline", "ADDICT"},
		Threads:    []int{2, 4},
	}
	ctx := context.Background()
	for _, format := range []string{"table", "csv", "jsonl"} {
		var direct, session bytes.Buffer
		em, err := sweep.NewEmitter(format, &direct)
		if err != nil {
			t.Fatal(err)
		}
		if err := sweep.Run(ctx, spec, em, 2, nil); err != nil {
			t.Fatal(err)
		}
		if err := NewEngine(WithWorkers(2)).Sweep(ctx, &session, spec, format); err != nil {
			t.Fatal(err)
		}
		if direct.Len() == 0 {
			t.Fatalf("%s: empty sweep output", format)
		}
		if !bytes.Equal(direct.Bytes(), session.Bytes()) {
			t.Errorf("%s: sweep.Run and Engine.Sweep diverge", format)
		}
	}
}

// TestEngineExperimentsWorkerIndependent: Engine.Experiments must render
// byte-identical output on one worker (the in-order loop) and on a pool —
// single experiments and the full report alike.
func TestEngineExperimentsWorkerIndependent(t *testing.T) {
	ctx := context.Background()
	for _, ids := range [][]string{{"fig1"}, nil} {
		var serial, pooled bytes.Buffer
		if err := tinyEngine(1).Experiments(ctx, &serial, ids...); err != nil {
			t.Fatal(err)
		}
		if err := tinyEngine(4).Experiments(ctx, &pooled, ids...); err != nil {
			t.Fatal(err)
		}
		if serial.Len() == 0 {
			t.Fatalf("%v: empty report", ids)
		}
		if !bytes.Equal(serial.Bytes(), pooled.Bytes()) {
			t.Errorf("%v: 1-worker and 4-worker reports diverge", ids)
		}
	}
}

// TestEngineExperimentsRejectUnknownIDs: an unknown id anywhere in the
// list is an error before any experiment renders.
func TestEngineExperimentsRejectUnknownIDs(t *testing.T) {
	e := tinyEngine(2)
	for _, ids := range [][]string{{"fig99"}, {"table1", "fig99"}, {"fig99", "table1"}, {"table1", "fig1", "nope"}} {
		var buf bytes.Buffer
		if err := e.Experiments(context.Background(), &buf, ids...); err == nil {
			t.Errorf("%v: unknown experiment accepted", ids)
		}
		if buf.Len() != 0 {
			t.Errorf("%v: wrote %d bytes before rejecting the unknown id", ids, buf.Len())
		}
	}
}

// TestEngineSessionReuse: repeated calls on one session must return the
// identical cached artifacts (pointer equality), and mixed entry points
// must agree.
func TestEngineSessionReuse(t *testing.T) {
	e := tinyEngine(2)
	ctx := context.Background()

	t1, err := e.Traces(ctx, "TPC-B")
	if err != nil {
		t.Fatal(err)
	}
	t2, err := e.Traces(ctx, "TPC-B")
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Error("Traces not cached across calls")
	}
	p1, err := e.Profile(ctx, "TPC-B")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.Profile(ctx, "TPC-B")
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("Profile not cached across calls")
	}
	r, err := e.Schedule(ctx, ADDICT, "TPC-B")
	if err != nil {
		t.Fatal(err)
	}
	before := e.CacheStats()
	r2, err := e.Schedule(ctx, ADDICT, "TPC-B")
	if err != nil {
		t.Fatal(err)
	}
	after := e.CacheStats()
	if after.Misses != before.Misses || after.Hits <= before.Hits || r2.Makespan != r.Makespan {
		t.Errorf("second Schedule does not reuse the cached result: misses %d -> %d, hits %d -> %d",
			before.Misses, after.Misses, before.Hits, after.Hits)
	}

	// The profiling and evaluation windows must stay disjoint.
	ps, err := e.arts.ProfileSet(ctx, "TPC-B")
	if err != nil {
		t.Fatal(err)
	}
	if ps == t1 || ps.Digest() == t1.Digest() {
		t.Error("profiling window aliases the evaluation window")
	}
}

// TestEngineConcurrentUse hammers one session from many goroutines across
// entry points — the -race stress of the session cache. Every goroutine
// must observe the same artifact pointers and identical results.
func TestEngineConcurrentUse(t *testing.T) {
	e := tinyEngine(4)
	ctx := context.Background()
	names := []string{"TPC-B", "TPC-C"}

	const goroutines = 12
	type view struct {
		set      *TraceSet
		makespan uint64
		sweepOut []byte
	}
	views := make([]view, goroutines)
	errs := make([]error, goroutines)
	spec := SweepSpec{
		Seed: 5, Scale: 0.05, ProfileTraces: 60, EvalTraces: 60,
		Workloads: []string{"TPC-B"}, Mechanisms: []string{"Baseline"},
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := names[g%len(names)]
			set, err := e.Traces(ctx, name)
			if err != nil {
				errs[g] = err
				return
			}
			res, err := e.Schedule(ctx, Mechanisms[g%len(Mechanisms)], name)
			if err != nil {
				errs[g] = err
				return
			}
			var buf bytes.Buffer
			if err := e.Sweep(ctx, &buf, spec, "csv"); err != nil {
				errs[g] = err
				return
			}
			views[g] = view{set: set, makespan: res.Makespan, sweepOut: buf.Bytes()}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for g := range views {
		// Goroutine g%len(names) requested the same workload: one cached
		// instance must serve both.
		if views[g].set != views[g%len(names)].set {
			t.Errorf("goroutine %d saw a different trace-set instance", g)
		}
		if !bytes.Equal(views[g].sweepOut, views[0].sweepOut) {
			t.Errorf("goroutine %d saw different sweep bytes", g)
		}
		// Goroutine g+8 hit the same (workload, mechanism) cell.
		if h := g + len(names)*len(Mechanisms); h < goroutines && views[g].makespan != views[h].makespan {
			t.Errorf("goroutines %d/%d disagree on makespan: %d vs %d", g, h, views[g].makespan, views[h].makespan)
		}
	}
}

// TestEngineCancellation: a cancelled context aborts Engine pipelines with
// its error, and — because failed computations are evicted, never cached —
// the same session then serves a live context normally.
func TestEngineCancellation(t *testing.T) {
	e := tinyEngine(2)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := e.Traces(cancelled, "TPC-B"); err == nil {
		t.Fatal("Traces with a cancelled context returned nil error")
	}
	var buf bytes.Buffer
	if err := e.Sweep(cancelled, &buf, SweepSpec{Workloads: []string{"TPC-B"}}, "csv"); err == nil {
		t.Fatal("Sweep with a cancelled context returned nil error")
	}
	if err := e.Experiments(cancelled, &buf, "fig1"); err == nil {
		t.Fatal("Experiments with a cancelled context returned nil error")
	}

	// The cancelled attempts must not have poisoned the session cache.
	ctx := context.Background()
	set, err := e.Traces(ctx, "TPC-B")
	if err != nil {
		t.Fatalf("session poisoned by cancelled call: %v", err)
	}
	if len(set.Traces) != 60 {
		t.Fatalf("got %d traces, want 60", len(set.Traces))
	}
	if _, err := e.Schedule(ctx, Baseline, "TPC-B"); err != nil {
		t.Fatalf("Schedule after cancelled calls: %v", err)
	}
}

// TestEngineCancellationIsPrompt: cancelling mid-run must abort a long
// pipeline well before it would complete. The whole window generates in
// about 120 ms on a 2-vCPU host, so the cancel comes early enough to land
// mid-run.
func TestEngineCancellationIsPrompt(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	e := NewEngine(WithSeed(9), WithScale(0.5), WithTraceWindows(2000, 2000, 0), WithWorkers(2))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := e.Traces(ctx, "TPC-C")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("cancelled generation returned nil error")
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v to take effect", elapsed)
	}
}

// TestEngineUnknownNames: every by-name entry point resolves through the
// one workload-name resolver, so unknown names fail uniformly.
func TestEngineUnknownNames(t *testing.T) {
	e := tinyEngine(1)
	ctx := context.Background()
	if _, err := e.Traces(ctx, "nope"); err == nil {
		t.Error("Traces accepted an unknown name")
	}
	if _, err := e.Schedule(ctx, Baseline, "nope"); err == nil {
		t.Error("Schedule accepted an unknown name")
	}
	if _, err := e.GenerateTraces(ctx, "nope", 1); err == nil {
		t.Error("GenerateTraces accepted an unknown name")
	}
	// The synth name space resolves everywhere too.
	if _, err := e.GenerateTraces(ctx, "synth:uniform-ro", 1); err != nil {
		t.Errorf("GenerateTraces rejected a synth name: %v", err)
	}
	if _, err := e.Traces(ctx, "synth:uniform-ro"); err != nil {
		t.Errorf("Traces rejected a synth name: %v", err)
	}
}

// TestEngineBenchSharesSession: a session-compatible bench config reuses
// the session cache (the report stays structurally sound either way).
func TestEngineBenchSharesSession(t *testing.T) {
	if testing.Short() {
		t.Skip("bench cells take ~300ms each")
	}
	e := tinyEngine(2)
	ctx := context.Background()
	cfg := BenchConfig{
		Workloads:   []string{"TPC-B"},
		Mechanisms:  Mechanisms[:1],
		MinRuns:     1,
		MinDuration: time.Millisecond,
	}
	rep, err := e.Bench(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 1 || rep.Cells[0].Workload != "TPC-B" {
		t.Fatalf("unexpected report cells: %+v", rep.Cells)
	}
	if rep.Seed != 5 || rep.Scale != 0.05 {
		t.Errorf("bench did not inherit session parameters: seed=%d scale=%v", rep.Seed, rep.Scale)
	}
}

// TestEngineGateBench: the session gate runs the harness and judges the
// fresh report per cell against the baseline, recording the verdict in
// the returned file; nil and incomparable baselines are refused.
func TestEngineGateBench(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the bench harness")
	}
	e := tinyEngine(2)
	ctx := context.Background()
	cfg := BenchConfig{
		Workloads:   []string{"TPC-B"},
		MinRuns:     1,
		MinDuration: time.Millisecond,
	}
	base, err := e.Bench(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	file, verdict, err := e.GateBench(ctx, cfg, base, BenchGateConfig{MaxCellRegress: 0.9, MaxRegress: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if !verdict.Pass {
		t.Errorf("self-comparison failed a 90%% budget: %s", verdict.Summary())
	}
	if file.Gate != verdict || len(verdict.Cells) != len(Mechanisms) {
		t.Errorf("verdict not recorded in the file or wrong cell count: %d", len(verdict.Cells))
	}
	if _, _, err := e.GateBench(ctx, cfg, nil, BenchGateConfig{MaxCellRegress: 0.9}); err == nil {
		t.Error("nil baseline accepted")
	}

	// An explicit zero seed is a value, not "the default seed".
	zero := NewEngine(WithSeed(0), WithScale(0.05), WithTraceWindows(60, 60, 80), WithWorkers(2))
	rep0, err := zero.Bench(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep0.Seed != 0 {
		t.Errorf("explicit zero seed resolved to %d, want 0", rep0.Seed)
	}
	// ... and the seed-5 report is not a comparable baseline for it.
	if _, _, err := zero.GateBench(ctx, cfg, base, BenchGateConfig{MaxCellRegress: 0.9}); err == nil {
		t.Error("mismatched-seed baseline accepted")
	}
}

// TestSweepDistributedReadsSessionCache: in-process workers compute on the
// session cache, so a distributed sweep over artifacts the session already
// holds regenerates nothing, and its merged output is Sweep's.
func TestSweepDistributedReadsSessionCache(t *testing.T) {
	e := tinyEngine(2)
	ctx := context.Background()
	if _, err := e.Schedule(ctx, ADDICT, "TPC-B"); err != nil {
		t.Fatal(err)
	}
	spec := SweepSpec{Workloads: []string{"TPC-B"}, Mechanisms: []string{"ADDICT"}}
	before := e.CacheStats()
	var dist bytes.Buffer
	if _, err := e.SweepDistributed(ctx, &dist, spec, "jsonl", DistConfig{LocalWorkers: 2}); err != nil {
		t.Fatal(err)
	}
	after := e.CacheStats()
	if after.Hits <= before.Hits {
		t.Errorf("local workers never hit the session cache: hits %d -> %d", before.Hits, after.Hits)
	}
	if after.Misses != before.Misses {
		t.Errorf("local workers missed the warm session cache: misses %d -> %d", before.Misses, after.Misses)
	}
	var serial bytes.Buffer
	if err := e.Sweep(ctx, &serial, spec, "jsonl"); err != nil {
		t.Fatal(err)
	}
	if serial.Len() == 0 || !bytes.Equal(dist.Bytes(), serial.Bytes()) {
		t.Errorf("distributed output diverges from Sweep:\n%s\nvs\n%s", dist.Bytes(), serial.Bytes())
	}
}

// TestTracesOneSetPerSpelling: every spelling of one workload keys one
// cache entry, so the session generates its window once and labels it with
// the canonical name.
func TestTracesOneSetPerSpelling(t *testing.T) {
	e := tinyEngine(1)
	ctx := context.Background()
	var sets []*TraceSet
	for _, name := range []string{"synth:uniform-ro+w0.5", "synth:uniform-ro+w.5", "synth:uniform-ro+w0.50"} {
		s, err := e.Traces(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, s)
	}
	if sets[1] != sets[0] || sets[2] != sets[0] {
		t.Error("spellings of one workload returned different trace sets")
	}
	if sets[0].Workload != "synth:uniform-ro+w0.5" {
		t.Errorf("set labelled %q, want the canonical synth:uniform-ro+w0.5", sets[0].Workload)
	}
	if st := e.CacheStats(); st.Misses != 1 || st.Hits != 2 {
		t.Errorf("cache misses/hits = %d/%d, want 1/2", st.Misses, st.Hits)
	}
}
