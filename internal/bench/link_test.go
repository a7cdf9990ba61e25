package bench_test

import (
	"context"
	"testing"

	"addict"
	"addict/internal/sched"
)

// TestEngineBenchSteadyZeroAlloc runs the harness through the public
// Engine, so this test binary links the whole addict stack (serving,
// distribution, store) beside the replay core. The steady-state guard must
// still read exactly zero for every mechanism: allocations the runtime or
// a linked package makes while a count is taken are not the replay loop's.
func TestEngineBenchSteadyZeroAlloc(t *testing.T) {
	e := addict.NewEngine(addict.WithSeed(3), addict.WithScale(0.05), addict.WithTraceWindows(20, 20, 0))
	rep, err := e.Bench(context.Background(), addict.BenchConfig{
		Workloads:   []string{"TPC-B"},
		Mechanisms:  sched.AllMechanisms,
		MinRuns:     1,
		MinDuration: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != len(sched.AllMechanisms) {
		t.Fatalf("%d cells, want %d", len(rep.Cells), len(sched.AllMechanisms))
	}
	for _, c := range rep.Cells {
		if c.SteadyAllocsPerEvent != 0 {
			t.Errorf("%s/%s: %.6f steady-state allocs/event, want 0", c.Workload, c.Mechanism, c.SteadyAllocsPerEvent)
		}
	}
}
