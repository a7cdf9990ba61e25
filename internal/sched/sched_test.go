package sched

import (
	"testing"

	"addict/internal/codemap"
	"addict/internal/core"
	"addict/internal/sim"
	"addict/internal/trace"
	"addict/internal/workload"
)

// testSetup builds a small TPC-B trace set plus its migration-point
// profile, shared across mechanism tests.
func testSetup(t *testing.T, n int) (*trace.Set, *core.Profile, Config) {
	t.Helper()
	b := workload.NewTPCB(1, 0.1)
	profSet := workload.GenerateSet(b, 100)
	evalSet := workload.GenerateSet(b, n)
	lay := codemap.NewLayout()
	pcfg := core.DefaultProfileConfig()
	pcfg.NoMigrate = lay.NoMigrate
	prof := core.FindMigrationPoints(profSet, pcfg)
	return evalSet, prof, Config{Machine: sim.Shallow(), Profile: prof}
}

func TestBatchByTypeGroups(t *testing.T) {
	mk := func(tt trace.TxnType) *trace.Trace {
		b := trace.NewBuffer()
		b.TxnBegin(tt, "x")
		b.Instr(0x400000)
		b.TxnEnd()
		return b.Take()[0]
	}
	traces := []*trace.Trace{mk(0), mk(1), mk(0), mk(1), mk(0), mk(1), mk(0), mk(1)}
	out := batchByType(traces, 2)
	if len(out) != len(traces) {
		t.Fatalf("lost traces: %d", len(out))
	}
	// Batches of 2 same-type, round-robin across types.
	wantTypes := []trace.TxnType{0, 0, 1, 1, 0, 0, 1, 1}
	for i, tr := range out {
		if tr.Type != wantTypes[i] {
			t.Errorf("position %d: type %d, want %d", i, tr.Type, wantTypes[i])
		}
	}
}

func TestApplyBatchesBoundaries(t *testing.T) {
	mk := func(tt trace.TxnType) *trace.Trace {
		b := trace.NewBuffer()
		b.TxnBegin(tt, "x")
		b.Instr(0x400000)
		b.TxnEnd()
		return b.Take()[0]
	}
	// 3 of type 0, then 2 of type 1, batch size 2 → batches 0,0 | 1 | 2,2.
	ordered := []*trace.Trace{mk(0), mk(0), mk(0), mk(1), mk(1)}
	ex := sim.NewExecutor(sim.NewMachine(sim.Shallow()), &baselineHooks{cores: 16}, ordered)
	applyBatches(ex.Threads(), ordered, 2)
	got := make([]int, 5)
	for i, th := range ex.Threads() {
		got[i] = th.Batch
	}
	want := []int{0, 0, 1, 2, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("batches = %v, want %v", got, want)
			break
		}
	}
}

func TestAllMechanismsExecuteEverything(t *testing.T) {
	set, _, cfg := testSetup(t, 48)
	wantInstr := uint64(0)
	for _, tr := range set.Traces {
		wantInstr += tr.Instructions()
	}
	for _, mech := range AllMechanisms {
		res, err := Run(mech, set, cfg)
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		if res.Machine.Instructions != wantInstr {
			t.Errorf("%s executed %d instructions, want %d", mech, res.Machine.Instructions, wantInstr)
		}
		if res.Threads != 48 || res.Makespan == 0 {
			t.Errorf("%s: threads=%d makespan=%d", mech, res.Threads, res.Makespan)
		}
	}
}

func TestBaselineNeverSwitches(t *testing.T) {
	set, _, cfg := testSetup(t, 32)
	res, err := Run(Baseline, set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations != 0 || res.ContextSwitches != 0 {
		t.Errorf("baseline switched: %d migrations, %d switches", res.Migrations, res.ContextSwitches)
	}
}

func TestSTREXSwitchesButNeverMigrates(t *testing.T) {
	set, _, cfg := testSetup(t, 32)
	res, err := Run(STREX, set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations != 0 {
		t.Errorf("STREX migrated %d times", res.Migrations)
	}
	if res.ContextSwitches == 0 {
		t.Error("STREX never context-switched")
	}
}

func TestSLICCMigrates(t *testing.T) {
	set, _, cfg := testSetup(t, 32)
	res, err := Run(SLICC, set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations == 0 {
		t.Error("SLICC never migrated")
	}
	if res.ContextSwitches != 0 {
		t.Errorf("SLICC context-switched %d times", res.ContextSwitches)
	}
}

func TestADDICTMigratesAndWinsOnL1I(t *testing.T) {
	set, _, cfg := testSetup(t, 64)
	base, err := Run(Baseline, set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	add, err := Run(ADDICT, set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if add.Migrations == 0 {
		t.Fatal("ADDICT never migrated")
	}
	bMPKI := base.Machine.MPKI(base.Machine.L1IMisses)
	aMPKI := add.Machine.MPKI(add.Machine.L1IMisses)
	t.Logf("L1-I MPKI: baseline %.2f, ADDICT %.2f (ratio %.2f)", bMPKI, aMPKI, aMPKI/bMPKI)
	if aMPKI >= bMPKI {
		t.Errorf("ADDICT L1-I MPKI %.2f not below baseline %.2f", aMPKI, bMPKI)
	}
	// The paper's headline: a large reduction (85% on the full setup; the
	// small test set must still show a clear win).
	if aMPKI > 0.6*bMPKI {
		t.Errorf("ADDICT reduction too small: %.2f vs %.2f", aMPKI, bMPKI)
	}
}

func TestADDICTRequiresProfile(t *testing.T) {
	set, _, cfg := testSetup(t, 8)
	cfg.Profile = nil
	if _, err := Run(ADDICT, set, cfg); err == nil {
		t.Error("ADDICT without profile did not error")
	}
}

func TestUnknownMechanism(t *testing.T) {
	set, _, cfg := testSetup(t, 8)
	if _, err := Run("Bogus", set, cfg); err == nil {
		t.Error("unknown mechanism did not error")
	}
}

func TestRunDeterminism(t *testing.T) {
	set, _, cfg := testSetup(t, 32)
	for _, mech := range AllMechanisms {
		r1, err := Run(mech, set, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Run(mech, set, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Makespan != r2.Makespan || r1.Migrations != r2.Migrations ||
			r1.Machine.L1IMisses != r2.Machine.L1IMisses {
			t.Errorf("%s nondeterministic: makespan %d/%d, migrations %d/%d",
				mech, r1.Makespan, r2.Makespan, r1.Migrations, r2.Migrations)
		}
	}
}

func TestBatchSizeOverride(t *testing.T) {
	set, _, cfg := testSetup(t, 32)
	cfg.BatchSize = 4
	res, err := Run(ADDICT, set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Threads != 32 {
		t.Errorf("threads = %d", res.Threads)
	}
}
