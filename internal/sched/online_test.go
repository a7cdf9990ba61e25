package sched

import (
	"testing"

	"addict/internal/codemap"
	"addict/internal/sim"
	"addict/internal/workload"
)

func TestRunOnlineProfilesThenMigrates(t *testing.T) {
	b := workload.NewTPCB(1, 0.1)
	set := workload.GenerateSet(b, 160)
	lay := codemap.NewLayout()
	cfg := Config{Machine: sim.Shallow()}

	res, prof, err := RunOnline(set, cfg, 60, lay.NoMigrate)
	if err != nil {
		t.Fatal(err)
	}
	if res.Threads != 160 {
		t.Fatalf("threads = %d", res.Threads)
	}
	if prof == nil || len(prof.Txns) == 0 {
		t.Fatal("no profile learned during ramp-up")
	}
	// The serving phase must actually migrate.
	if res.Migrations == 0 {
		t.Error("online run never migrated after ramp-up")
	}
	// Online must land between Baseline (no locality help) and offline
	// ADDICT (profiled up front): better than baseline overall despite the
	// baseline-scheduled ramp-up window.
	base, err := Run(Baseline, set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Machine.MPKI(res.Machine.L1IMisses) >= base.Machine.MPKI(base.Machine.L1IMisses) {
		t.Errorf("online L1-I MPKI %.2f not below baseline %.2f",
			res.Machine.MPKI(res.Machine.L1IMisses), base.Machine.MPKI(base.Machine.L1IMisses))
	}
}

func TestRunOnlineValidatesRampUp(t *testing.T) {
	b := workload.NewTPCB(2, 0.05)
	set := workload.GenerateSet(b, 10)
	cfg := Config{Machine: sim.Shallow()}
	if _, _, err := RunOnline(set, cfg, 0, nil); err == nil {
		t.Error("ramp-up 0 accepted")
	}
	if _, _, err := RunOnline(set, cfg, 10, nil); err == nil {
		t.Error("ramp-up == len accepted")
	}
	if _, _, err := RunOnline(set, cfg, 15, nil); err == nil {
		t.Error("ramp-up > len accepted")
	}
}

func TestRunOnlineDeterminism(t *testing.T) {
	b := workload.NewTPCB(3, 0.05)
	set := workload.GenerateSet(b, 60)
	cfg := Config{Machine: sim.Shallow()}
	r1, p1, err := RunOnline(set, cfg, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, p2, err := RunOnline(set, cfg, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan != r2.Makespan || r1.Migrations != r2.Migrations {
		t.Error("online run nondeterministic")
	}
	if !p1.Equal(p2) {
		t.Error("online profiles differ across runs")
	}
}
