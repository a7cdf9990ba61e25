package exp

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"addict/internal/core"
	"addict/internal/sched"
	"addict/internal/sim"
	"addict/internal/workload"
	"addict/internal/workload/synth"
)

// quickSerial caches one serial (one-worker) QuickParams() report per test
// binary; the determinism and golden tests share it instead of re-running
// the full evaluation.
var (
	quickSerialOnce sync.Once
	quickSerialOut  []byte
)

func serialQuickReport() []byte {
	quickSerialOnce.Do(func() {
		quickSerialOut = report(QuickParams(), 1)
	})
	return quickSerialOut
}

// report renders the full report on a fresh workbench.
func report(p Params, workers int) []byte {
	var buf bytes.Buffer
	if err := Run(context.Background(), &buf, p, workers, nil); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// firstDiff describes the first byte position where two reports diverge.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 60
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("byte %d: serial %q vs parallel %q", i, a[lo:i+1], b[lo:i+1])
		}
	}
	return fmt.Sprintf("length %d vs %d", len(a), len(b))
}

// TestRunAllParallelMatchesSerial is the engine's headline guarantee: the
// pooled report must be byte-identical to the one-worker in-order loop
// under QuickParams() for 2 and 8 workers. (Under -race the comparison runs
// at tinyParams() to keep the 5-10x detector slowdown affordable; the
// guarantee itself is parameter-independent.)
func TestRunAllParallelMatchesSerial(t *testing.T) {
	p := QuickParams()
	var want []byte
	if raceEnabled {
		p = tinyParams()
		want = report(p, 1)
	} else {
		want = serialQuickReport()
	}
	if len(want) == 0 {
		t.Fatal("serial report is empty")
	}
	for _, workers := range []int{2, 8} {
		if got := report(p, workers); !bytes.Equal(got, want) {
			t.Errorf("report with %d workers diverges from the serial one: %s",
				workers, firstDiff(want, got))
		}
	}
}

// TestWorkbenchShardDigestsWorkerIndependent asserts the workbench's trace
// sets are identical whichever generation parallelism produced them.
func TestWorkbenchShardDigestsWorkerIndependent(t *testing.T) {
	p := tinyParams()
	serial := NewWorkbench(context.Background(), p, 1)
	for _, workers := range []int{2, 8} {
		par := NewWorkbench(context.Background(), p, workers)
		for _, name := range Workloads {
			if got, want := par.ProfileSet(name).Digest(), serial.ProfileSet(name).Digest(); got != want {
				t.Errorf("%s profile set digest (workers=%d) = %#x, want %#x", name, workers, got, want)
			}
			if got, want := par.EvalSet(name).Digest(), serial.EvalSet(name).Digest(); got != want {
				t.Errorf("%s eval set digest (workers=%d) = %#x, want %#x", name, workers, got, want)
			}
		}
	}
	// Profiling and evaluation windows must stay disjoint shard ranges.
	for _, name := range Workloads {
		if serial.ProfileSet(name).Digest() == serial.EvalSet(name).Digest() {
			t.Errorf("%s: profile and eval sets identical", name)
		}
	}
}

// TestWorkbenchConcurrentSingleFlight hammers one workbench from many
// goroutines: every caller must observe the same artifact pointers (the
// computation ran exactly once) and identical simulation results. Run with
// -race this is the scheduler/simulator data-race audit.
func TestWorkbenchConcurrentSingleFlight(t *testing.T) {
	p := Params{Seed: 5, Scale: 0.05, ProfileTraces: 60, EvalTraces: 60, StabilityTraces: 80, Machine: sim.Shallow()}
	w := NewWorkbench(context.Background(), p, 4)

	const goroutines = 16
	type view struct {
		prof     *core.Profile
		makespan map[sched.Mechanism]uint64
	}
	views := make([]view, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := Workloads[g%len(Workloads)]
			v := view{makespan: make(map[sched.Mechanism]uint64)}
			_ = w.ProfileSet(name)
			_ = w.EvalSet(name)
			v.prof = w.Profile(name)
			for _, mech := range sched.Mechanisms {
				v.makespan[mech] = w.Result(name, mech).Makespan
			}
			views[g] = v
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		peer := g % len(Workloads) // first goroutine on the same workload
		if views[g].prof != views[peer].prof {
			t.Errorf("goroutine %d saw a different profile instance than goroutine %d", g, peer)
		}
		for mech, ms := range views[g].makespan {
			if ms != views[peer].makespan[mech] {
				t.Errorf("goroutine %d: %s makespan %d != goroutine %d's %d", g, mech, ms, peer, views[peer].makespan[mech])
			}
		}
	}
}

// TestGenerateSetShardedMatchesWorkbench ties the workload-level generator
// to the workbench path (same recipe, same bytes).
func TestGenerateSetShardedMatchesWorkbench(t *testing.T) {
	p := tinyParams()
	w := NewWorkbench(context.Background(), p, 1)
	_, build, err := synth.Workload("TPC-B")
	if err != nil {
		t.Fatal(err)
	}
	s, err := workload.GenerateSetShardedWith(context.Background(), build, p.Seed, p.Scale, 0, p.ProfileTraces, workload.DefaultShardSize, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Digest() != w.ProfileSet("TPC-B").Digest() {
		t.Error("standalone sharded generation diverges from the workbench profile set")
	}
}
