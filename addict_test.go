package addict_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"addict"
)

// TestPublicPipeline exercises the documented end-to-end flow: build a
// workload, profile it, and compare ADDICT against Baseline.
func TestPublicPipeline(t *testing.T) {
	w := addict.NewTPCB(1, 0.05)
	profSet := addict.GenerateTraces(w, 80)
	prof := addict.FindMigrationPoints(profSet)
	evalSet := addict.GenerateTraces(w, 80)

	base, err := addict.Schedule(addict.Baseline, evalSet, addict.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := addict.Schedule(addict.ADDICT, evalSet, addict.Options{Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	if res.Machine.MPKI(res.Machine.L1IMisses) >= base.Machine.MPKI(base.Machine.L1IMisses) {
		t.Error("ADDICT did not reduce L1-I MPKI through the public API")
	}
}

func TestGenerateTracesByName(t *testing.T) {
	e := addict.NewEngine(addict.WithSeed(1), addict.WithScale(0.02), addict.WithWorkers(1))
	ctx := context.Background()
	for _, name := range []string{"TPC-B", "TPC-C", "TPC-E"} {
		s, err := e.GenerateTraces(ctx, name, 2)
		if err != nil || s.Workload != name || len(s.Traces) != 2 {
			t.Errorf("GenerateTraces(%q) = %v, %v", name, s, err)
		}
	}
	if _, err := e.GenerateTraces(ctx, "TPC-X", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestCustomWorkload(t *testing.T) {
	m := addict.NewStorageManager()
	tbl := m.CreateTable("kv")
	tbl.CreateIndex("kv_pk")
	pop := m.Begin()
	for i := 0; i < 500; i++ {
		if _, err := m.InsertTuple(pop, tbl, []uint64{uint64(i)}, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	m.Commit(pop)

	i := 0
	w, err := addict.NewCustomWorkload("KV", m, 1, []addict.TxnSpec{
		{Name: "Get", Weight: 0.8, Run: func(txn *addict.Txn) {
			m.IndexProbe(txn, tbl, tbl.Index(0), uint64(i%500))
			i++
		}},
		{Name: "Put", Weight: 0.2, Run: func(txn *addict.Txn) {
			rid, _, ok := m.IndexProbe(txn, tbl, tbl.Index(0), uint64(i%500))
			if ok {
				m.UpdateTuple(txn, tbl, rid, uint64(i%500), make([]byte, 64))
			}
			i++
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	set := addict.GenerateTraces(w, 50)
	if len(set.Traces) != 50 {
		t.Fatalf("traces = %d", len(set.Traces))
	}
	prof := addict.FindMigrationPoints(set)
	eval := addict.GenerateTraces(w, 50)
	res, err := addict.Schedule(addict.ADDICT, eval, addict.Options{Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	if res.Threads != 50 {
		t.Errorf("threads = %d", res.Threads)
	}
}

// TestSynthFacade exercises the synthetic-workload surface: presets,
// name parsing, compilation, and worker-count-independent sharded
// generation.
func TestSynthFacade(t *testing.T) {
	presets := addict.SynthPresets()
	if len(presets) < 4 {
		t.Fatalf("%d presets, want >= 4", len(presets))
	}
	spec, err := addict.ParseSynthWorkload("synth:zipf-hot-rw+w0.2")
	if err != nil {
		t.Fatal(err)
	}
	if spec.WriteFrac != 0.2 {
		t.Errorf("override not applied: %+v", spec)
	}
	if _, err := addict.ParseSynthWorkload("synth:nope"); err == nil {
		t.Error("unknown preset accepted")
	}

	ctx := context.Background()
	serialEngine := addict.NewEngine(addict.WithSeed(7), addict.WithScale(0.02), addict.WithWorkers(1))
	serial, err := serialEngine.SynthTraces(ctx, spec, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Traces) != 30 || serial.Workload != "synth:zipf-hot-rw+w0.2" {
		t.Fatalf("got %q with %d traces", serial.Workload, len(serial.Traces))
	}
	parallel, err := addict.NewEngine(addict.WithSeed(7), addict.WithScale(0.02),
		addict.WithWorkers(4)).SynthTraces(ctx, spec, 30)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Digest() != parallel.Digest() {
		t.Error("sharded synth generation depends on worker count")
	}

	if _, err := serialEngine.SynthTraces(ctx, addict.SynthSpec{Rows: 1}, 1); err == nil {
		t.Error("invalid synth spec accepted")
	}
}

// TestNewCustomWorkloadValidation covers the facade's spec validation.
func TestNewCustomWorkloadValidation(t *testing.T) {
	m := addict.NewStorageManager()
	if _, err := addict.NewCustomWorkload("Empty", m, 1, nil); err == nil {
		t.Error("empty spec list accepted")
	}
	if _, err := addict.NewCustomWorkload("ZeroW", m, 1, []addict.TxnSpec{
		{Name: "A", Weight: 0, Run: func(*addict.Txn) {}},
	}); err == nil {
		t.Error("all-zero weights accepted")
	}
}

func TestTraceCodecRoundtripPublic(t *testing.T) {
	w := addict.NewTPCB(1, 0.02)
	set := addict.GenerateTraces(w, 5)
	var buf bytes.Buffer
	if err := addict.WriteTraces(&buf, set); err != nil {
		t.Fatal(err)
	}
	got, err := addict.ReadTraces(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Traces) != 5 || got.Workload != "TPC-B" {
		t.Errorf("roundtrip: %d traces, workload %q", len(got.Traces), got.Workload)
	}
}

func TestRunExperimentByID(t *testing.T) {
	var sb strings.Builder
	ctx := context.Background()
	eng := addict.NewEngine(addict.WithScale(0.05), addict.WithTraceWindows(50, 250, 0))
	if err := eng.Experiments(ctx, &sb, "table1"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Table 1") {
		t.Error("table1 output missing header")
	}
	if err := eng.Experiments(ctx, &sb, "nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
	if len(addict.ExperimentIDs()) < 12 {
		t.Errorf("only %d experiment ids", len(addict.ExperimentIDs()))
	}
}

func TestProfilePersistence(t *testing.T) {
	w := addict.NewTPCB(1, 0.05)
	set := addict.GenerateTraces(w, 60)
	prof := addict.FindMigrationPoints(set)
	var buf bytes.Buffer
	if err := addict.WriteProfile(&buf, prof); err != nil {
		t.Fatal(err)
	}
	got, err := addict.ReadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// A reloaded (static, a-priori) profile must schedule identically.
	eval := addict.GenerateTraces(w, 60)
	r1, err := addict.Schedule(addict.ADDICT, eval, addict.Options{Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := addict.Schedule(addict.ADDICT, eval, addict.Options{Profile: got})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan != r2.Makespan || r1.Migrations != r2.Migrations {
		t.Errorf("reloaded profile schedules differently: %d/%d vs %d/%d",
			r1.Makespan, r1.Migrations, r2.Makespan, r2.Migrations)
	}
}

func TestMachinePresets(t *testing.T) {
	if addict.ShallowMachine().PrivateL2 != nil {
		t.Error("shallow machine has a private L2")
	}
	if addict.DeepMachine().PrivateL2 == nil {
		t.Error("deep machine lacks a private L2")
	}
}
