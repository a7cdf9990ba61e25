package power

import (
	"testing"

	"addict/internal/sim"
	"addict/internal/trace"
)

func fakeResult(makespan uint64, migrations uint64) sim.Result {
	m := sim.NewMachine(sim.Shallow())
	// Drive some traffic through the machine so counters are non-zero.
	for i := 0; i < 100; i++ {
		m.Exec(0, trace.MemEvent(trace.KindInstr, uint64(0x400000+i*64)))
		m.Exec(1, trace.MemEvent(trace.KindDataRead, uint64(0x2_0000_0000+i*64)))
	}
	return sim.Result{
		Machine:    m.Snapshot(),
		Makespan:   makespan,
		Migrations: migrations,
		CoreActive: make([]uint64, 16),
	}
}

func TestAnalyzeBasics(t *testing.T) {
	rep := Analyze(fakeResult(1000, 5), DefaultWeights())
	if rep.TotalEnergy <= 0 || rep.AvgCorePower <= 0 {
		t.Fatalf("empty report: %+v", rep)
	}
	sum := rep.Breakdown.Dynamic + rep.Breakdown.Caches + rep.Breakdown.NoC +
		rep.Breakdown.Memory + rep.Breakdown.Migration + rep.Breakdown.Static
	if diff := rep.TotalEnergy - sum; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("breakdown does not sum: %v vs %v", rep.TotalEnergy, sum)
	}
}

// TestFasterRunDrawsMorePower is the Figure 8b effect: identical work over
// a shorter makespan raises average power.
func TestFasterRunDrawsMorePower(t *testing.T) {
	slow := Analyze(fakeResult(2000, 0), DefaultWeights())
	fast := Analyze(fakeResult(1200, 50), DefaultWeights())
	if fast.AvgCorePower <= slow.AvgCorePower {
		t.Errorf("fast run power %v not above slow run %v", fast.AvgCorePower, slow.AvgCorePower)
	}
	// Energy, by contrast, barely moves (static shrinks, migrations add).
	if fast.TotalEnergy > slow.TotalEnergy {
		t.Errorf("faster run used more energy: %v vs %v", fast.TotalEnergy, slow.TotalEnergy)
	}
}

func TestMigrationsCostEnergy(t *testing.T) {
	none := Analyze(fakeResult(1000, 0), DefaultWeights())
	many := Analyze(fakeResult(1000, 1000), DefaultWeights())
	if many.TotalEnergy <= none.TotalEnergy {
		t.Error("migrations did not add energy")
	}
	if many.Breakdown.Migration == 0 {
		t.Error("migration energy not attributed")
	}
}

func TestZeroMakespan(t *testing.T) {
	rep := Analyze(fakeResult(0, 0), DefaultWeights())
	if rep.AvgCorePower != 0 {
		t.Errorf("power with zero makespan = %v", rep.AvgCorePower)
	}
}
