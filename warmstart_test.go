package addict

import (
	"bytes"
	"context"
	"testing"
	"time"
)

// storedTinyEngine is tinyEngine with an on-disk artifact store attached.
func storedTinyEngine(t *testing.T, dir string) *Engine {
	t.Helper()
	e := NewEngine(WithSeed(5), WithScale(0.05), WithTraceWindows(60, 60, 80),
		WithWorkers(2), WithStore(dir, 0))
	if err := e.StoreErr(); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestWarmStartSweepByteIdentical is the store's acceptance differential:
// a cold session fills the store, a second session (fresh process state,
// same directory) reruns the same sweep — the JSONL output must be
// byte-identical, the warm run must hit the store, and it must compute
// strictly less (nothing new to persist).
func TestWarmStartSweepByteIdentical(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	spec := SweepSpec{
		Workloads:  []string{"synth:uniform-ro", "synth:hotset-write"},
		Mechanisms: []string{"Baseline", "ADDICT"},
		Threads:    []int{2},
	}

	cold := storedTinyEngine(t, dir)
	var coldOut bytes.Buffer
	if err := cold.Sweep(ctx, &coldOut, spec, "jsonl"); err != nil {
		t.Fatal(err)
	}
	coldStore := cold.CacheStats().Store
	if coldStore == nil {
		t.Fatal("no store counters on a stored session")
	}
	if coldStore.Writes == 0 {
		t.Fatalf("cold sweep persisted nothing: %+v", coldStore)
	}

	warm := storedTinyEngine(t, dir)
	var warmOut bytes.Buffer
	if err := warm.Sweep(ctx, &warmOut, spec, "jsonl"); err != nil {
		t.Fatal(err)
	}
	if coldOut.Len() == 0 {
		t.Fatal("empty sweep output")
	}
	if !bytes.Equal(coldOut.Bytes(), warmOut.Bytes()) {
		t.Errorf("warm sweep output differs from cold:\ncold:\n%s\nwarm:\n%s", coldOut.String(), warmOut.String())
	}
	warmStore := warm.CacheStats().Store
	if warmStore == nil || warmStore.Hits == 0 {
		t.Fatalf("warm sweep never hit the store: %+v", warmStore)
	}
	// Every artifact came from disk: the warm run had nothing new to
	// persist — the "measurably fewer computations" check.
	if warmStore.Writes != 0 {
		t.Errorf("warm sweep recomputed %d artifacts it should have loaded", warmStore.Writes)
	}
	if warmStore.VerifyFailures != 0 {
		t.Errorf("warm sweep hit corruption: %+v", warmStore)
	}
}

// TestWarmStartSweepMismatchedParams: a sweep whose base parameters differ
// from the session's still warm-starts — the session store rides along into
// the per-run artifact cache.
func TestWarmStartSweepMismatchedParams(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	// Base parameters deliberately differ from the session's (seed 5,
	// scale 0.05, 60-trace windows).
	spec := SweepSpec{
		Seed: 7, Scale: 0.05, ProfileTraces: 40, EvalTraces: 40,
		Workloads:  []string{"synth:uniform-ro"},
		Mechanisms: []string{"Baseline"},
	}

	cold := storedTinyEngine(t, dir)
	var coldOut bytes.Buffer
	if err := cold.Sweep(ctx, &coldOut, spec, "jsonl"); err != nil {
		t.Fatal(err)
	}
	warm := storedTinyEngine(t, dir)
	var warmOut bytes.Buffer
	if err := warm.Sweep(ctx, &warmOut, spec, "jsonl"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldOut.Bytes(), warmOut.Bytes()) {
		t.Error("mismatched-parameter warm sweep diverged from cold")
	}
	warmStore := warm.CacheStats().Store
	if warmStore == nil || warmStore.Hits == 0 {
		t.Fatalf("mismatched-parameter sweep never hit the store: %+v", warmStore)
	}
}

// TestWarmStartBenchReport: the bench harness warm-starts generation and
// profiling from the store, and the report's deterministic content (cell
// set, events per replay) is identical — timing is a measurement and is
// compared nowhere.
func TestWarmStartBenchReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the bench harness")
	}
	dir := t.TempDir()
	ctx := context.Background()
	cfg := BenchConfig{
		Workloads:   []string{"synth:uniform-ro"},
		Mechanisms:  Mechanisms[:2],
		MinRuns:     1,
		MinDuration: time.Millisecond,
	}

	cold := storedTinyEngine(t, dir)
	repCold, err := cold.Bench(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm := storedTinyEngine(t, dir)
	repWarm, err := warm.Bench(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if len(repWarm.Cells) != len(repCold.Cells) {
		t.Fatalf("cell count differs: %d vs %d", len(repWarm.Cells), len(repCold.Cells))
	}
	for i := range repCold.Cells {
		c, w := repCold.Cells[i], repWarm.Cells[i]
		if c.Workload != w.Workload || c.Mechanism != w.Mechanism || c.Events != w.Events {
			t.Errorf("cell %d deterministic content differs: %+v vs %+v", i, c, w)
		}
	}
	warmStore := warm.CacheStats().Store
	if warmStore == nil || warmStore.Hits == 0 {
		t.Errorf("warm bench never hit the store: %+v", warmStore)
	}
	if warmStore != nil && warmStore.Writes != 0 {
		t.Errorf("warm bench recomputed %d artifacts it should have loaded", warmStore.Writes)
	}
}

// TestSharedStoreKeepsMachinesApart: two sessions that share a store but
// differ only in main-memory latency must not serve each other's replay
// results — each gets what a memory-only session on its own machine
// computes.
func TestSharedStoreKeepsMachinesApart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	slow := ShallowMachine()
	slow.MemCycles = 400
	session := func(m MachineConfig, opts ...EngineOption) *Engine {
		opts = append([]EngineOption{WithSeed(5), WithScale(0.02), WithTraceWindows(20, 20, 0),
			WithWorkers(1), WithMachine(m)}, opts...)
		e := NewEngine(opts...)
		if err := e.StoreErr(); err != nil {
			t.Fatal(err)
		}
		return e
	}
	makespan := func(e *Engine) uint64 {
		t.Helper()
		r, err := e.Schedule(ctx, Baseline, "TPC-B")
		if err != nil {
			t.Fatal(err)
		}
		return r.Makespan
	}

	def := makespan(session(ShallowMachine(), WithStore(dir, 0)))
	got := makespan(session(slow, WithStore(dir, 0)))
	want := makespan(session(slow))
	if want == def {
		t.Fatal("the slower memory did not change the makespan; the test is vacuous")
	}
	if got != want {
		t.Errorf("MemCycles=400 session on a shared store got makespan %d, want %d (the default machine's is %d)",
			got, want, def)
	}
}
