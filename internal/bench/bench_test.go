package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"addict/internal/core"
	"addict/internal/sched"
	"addict/internal/sim"
	"addict/internal/sweep"
	"addict/internal/trace"
	"addict/internal/workload"
)

// guardInput builds the small replay input the zero-alloc guards and the
// replay benchmarks share.
func guardInput(tb testing.TB) (sched.Config, *trace.Set) {
	tb.Helper()
	w := workload.NewTPCC(11, 0.05)
	profSet := workload.GenerateSet(w, 40)
	evalSet := workload.GenerateSet(w, 40)
	cfg := sched.DefaultConfig(sim.Shallow())
	cfg.Profile = core.FindMigrationPoints(profSet, core.ProfileConfig{L1I: cfg.Machine.L1I})
	return cfg, evalSet
}

// TestSteadyStateZeroAlloc is the zero-alloc contract of the replay core:
// for every mechanism, the marginal allocation count per additional
// replayed event is exactly zero. Setup (executor construction, batching,
// per-thread scheduler state, first-use point-core sets) may allocate;
// the per-event loop may not — DoubleInterior keeps every per-run term
// identical so only per-event allocations survive the subtraction.
func TestSteadyStateZeroAlloc(t *testing.T) {
	cfg, evalSet := guardInput(t)
	for _, mech := range sched.AllMechanisms {
		mech := mech
		t.Run(string(mech), func(t *testing.T) {
			per, err := SteadyStateAllocsPerEvent(mech, evalSet, cfg)
			if err != nil {
				t.Fatalf("measuring %s: %v", mech, err)
			}
			if per != 0 {
				t.Errorf("%s: %.6f steady-state allocs/event, want 0", mech, per)
			}
		})
	}
}

// TestDoubleInteriorStructure checks the guard's instrument: doubled
// traces must stay valid, keep their type, and roughly double the events.
func TestDoubleInteriorStructure(t *testing.T) {
	_, evalSet := guardInput(t)
	doubled := DoubleInterior(evalSet)
	if len(doubled.Traces) != len(evalSet.Traces) {
		t.Fatalf("trace count changed: %d -> %d", len(evalSet.Traces), len(doubled.Traces))
	}
	for i, d := range doubled.Traces {
		orig := evalSet.Traces[i]
		if d.Type != orig.Type {
			t.Fatalf("trace %d: type changed", i)
		}
		if want := 2 + 2*(len(orig.Events)-2); len(d.Events) != want {
			t.Fatalf("trace %d: %d events, want %d", i, len(d.Events), want)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("trace %d: doubled trace invalid: %v", i, err)
		}
	}
}

// TestRunProducesReport exercises the harness end to end at tiny sizes and
// sanity-checks the report invariants the BENCH_*.json trajectory relies
// on.
func TestRunProducesReport(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workloads = []string{"TPC-B"}
	cfg.MinRuns = 1
	cfg.MinDuration = 1
	rep, err := Run(context.Background(), cfg, nil, sweep.NewArtifacts(3, 0.05, 20, 20, 1, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seed != 3 || rep.Scale != 0.05 || rep.ProfileTraces != 20 || rep.EvalTraces != 20 {
		t.Errorf("report does not record the cache's parameters: seed=%d scale=%v windows=%d/%d",
			rep.Seed, rep.Scale, rep.ProfileTraces, rep.EvalTraces)
	}
	// The grid (one workload × the paper's four) plus DefaultConfig's two
	// extra cells, which ride at the end in config order.
	want := len(sched.Mechanisms) + len(cfg.ExtraCells)
	if len(rep.Cells) != want {
		t.Fatalf("%d cells, want %d", len(rep.Cells), want)
	}
	for i, ec := range cfg.ExtraCells {
		c := rep.Cells[len(sched.Mechanisms)+i]
		if c.Workload != ec.Workload || c.Mechanism != string(ec.Mechanism) {
			t.Fatalf("extra cell %d is %s/%s, want %s/%s", i, c.Workload, c.Mechanism, ec.Workload, ec.Mechanism)
		}
	}
	for _, c := range rep.Cells {
		if c.Events == 0 || c.EventsPerSec <= 0 || c.NsPerEvent <= 0 {
			t.Fatalf("degenerate cell %+v", c)
		}
		if c.SteadyAllocsPerEvent != 0 {
			t.Errorf("%s/%s: steady-state allocs %.6f, want 0", c.Workload, c.Mechanism, c.SteadyAllocsPerEvent)
		}
	}
	if rep.Replay.EventsPerSec <= 0 {
		t.Fatalf("degenerate replay summary %+v", rep.Replay)
	}

	// Round-trip the file layout, with and without a baseline.
	var buf bytes.Buffer
	noBase, err := Compare(nil, rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := noBase.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Current == nil || parsed.Current.Replay.Events != rep.Replay.Events {
		t.Fatalf("file round trip lost the report")
	}
	withBase, err := Compare(parsed.Current, rep)
	if err != nil {
		t.Fatal(err)
	}
	if withBase.SpeedupEventsPerSec <= 0 {
		t.Fatalf("speedup not computed: %+v", withBase.SpeedupEventsPerSec)
	}
	if len(withBase.SpeedupCells) != len(rep.Cells) {
		t.Fatalf("%d per-cell speedups, want %d", len(withBase.SpeedupCells), len(rep.Cells))
	}
	for _, s := range withBase.SpeedupCells {
		if s.Speedup <= 0 {
			t.Fatalf("degenerate per-cell speedup %+v", s)
		}
	}

	// A bare report (no current/baseline wrapper) must be accepted as a
	// baseline source too.
	var bareBuf bytes.Buffer
	enc := json.NewEncoder(&bareBuf)
	if err := enc.Encode(rep); err != nil {
		t.Fatal(err)
	}
	parsedBare, err := ReadFile(&bareBuf)
	if err != nil {
		t.Fatal(err)
	}
	if parsedBare.Current == nil || parsedBare.Current.Replay.Events != rep.Replay.Events {
		t.Fatalf("bare report not accepted as baseline")
	}
}

// TestRunAcceptsSynthWorkloads: the harness must resolve encoded
// synthetic-workload names through the shared artifact cache, so synth
// scenarios can join the BENCH trajectory.
func TestRunAcceptsSynthWorkloads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workloads = []string{"synth:uniform-ro"}
	cfg.Mechanisms = []sched.Mechanism{sched.Baseline, sched.ADDICT}
	cfg.ExtraCells = nil
	cfg.MinRuns = 1
	cfg.MinDuration = 1
	arts := sweep.NewArtifacts(42, 0.02, 20, 20, 1, 0, nil)
	rep, err := Run(context.Background(), cfg, nil, arts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("%d cells, want 2", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Workload != "synth:uniform-ro" || c.Events == 0 || c.EventsPerSec <= 0 {
			t.Fatalf("degenerate synth cell %+v", c)
		}
	}

	cfg.Workloads = []string{"synth:no-such-preset"}
	if _, err := Run(context.Background(), cfg, nil, arts); err == nil {
		t.Error("unknown synth workload accepted")
	}
}

// BenchmarkReplay measures the full replay path (executor construction
// plus event loop) for the Baseline mechanism — the headline
// events-per-second number.
func BenchmarkReplay(b *testing.B) {
	cfg, evalSet := guardInput(b)
	events := setEvents(evalSet)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Run(sched.Baseline, evalSet, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(events), "events/op")
}

// benchMechanism measures one mechanism's replay.
func benchMechanism(b *testing.B, mech sched.Mechanism) {
	cfg, evalSet := guardInput(b)
	events := setEvents(evalSet)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Run(mech, evalSet, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(events), "events/op")
}

func BenchmarkSchedBaseline(b *testing.B) { benchMechanism(b, sched.Baseline) }
func BenchmarkSchedSTREX(b *testing.B)    { benchMechanism(b, sched.STREX) }
func BenchmarkSchedSLICC(b *testing.B)    { benchMechanism(b, sched.SLICC) }
func BenchmarkSchedADDICT(b *testing.B)   { benchMechanism(b, sched.ADDICT) }
func BenchmarkSchedHTMSPEC(b *testing.B)  { benchMechanism(b, sched.HTMSPEC) }
func BenchmarkSchedCHAIN(b *testing.B)    { benchMechanism(b, sched.CHAIN) }
