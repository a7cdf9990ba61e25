package exp

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"addict/internal/sched"
	"addict/internal/sim"
	"addict/internal/trace"
)

// tinyParams keeps experiment tests fast while exercising full paths.
func tinyParams() Params {
	return Params{
		Seed:            7,
		Scale:           0.1,
		ProfileTraces:   300, // enough instances for the rare paths
		EvalTraces:      150,
		StabilityTraces: 250,
		Machine:         sim.Shallow(),
	}
}

func TestTable1Renders(t *testing.T) {
	var sb strings.Builder
	Table1(&sb, sim.Shallow())
	for _, want := range []string{"16 cores", "32KB", "16MB NUCA", "torus", "42ns"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
	sb.Reset()
	Table1(&sb, sim.Deep())
	if !strings.Contains(sb.String(), "deep hierarchy") {
		t.Error("deep Table 1 missing private L2 row")
	}
}

func TestFig1ShapeHolds(t *testing.T) {
	w := NewWorkbench(context.Background(), tinyParams(), 1)
	r := Fig1(w)
	// Probe/scan/update/insert footprints must exist and be cache-scale.
	for _, op := range []trace.OpType{trace.OpIndexProbe, trace.OpIndexScan, trace.OpUpdateTuple, trace.OpInsertTuple} {
		if r.OpFootprint[op] < 100 {
			t.Errorf("%v footprint = %d blocks, implausibly small", op, r.OpFootprint[op])
		}
	}
	for _, e := range r.Edges {
		if e.Share <= 0 || e.Share >= 1 {
			t.Errorf("edge %s->%s share %.3f out of (0,1)", e.Parent, e.Child, e.Share)
		}
		// Within 15 percentage points of the paper's label; dashed-path
		// edges get extra slack at this tiny scale (splits and page
		// allocations are rare events — EXPERIMENTS.md records full-scale
		// numbers).
		tol := 0.15
		if e.Dashed || e.Child == "create index entry" || e.Child == "create record" {
			tol = 0.30
		}
		if diff := e.Share - e.Paper; diff > tol || diff < -tol {
			t.Errorf("edge %s->%s = %.2f, paper %.2f (off by more than %.2f)", e.Parent, e.Child, e.Share, e.Paper, tol)
		}
	}
	var sb strings.Builder
	r.Render(&sb)
	if !strings.Contains(sb.String(), "find key -> lookup") {
		t.Error("render missing probe edge")
	}
}

func TestFig2OverlapShape(t *testing.T) {
	w := NewWorkbench(context.Background(), tinyParams(), 1)
	r := Fig2(w, "TPC-B")
	// Section 2.2: instructions overlap heavily, data barely.
	if r.MixInstr.CommonShare() < 0.5 {
		t.Errorf("TPC-B mix instruction >=90%% share = %.2f, want > 0.5", r.MixInstr.CommonShare())
	}
	if r.MixData.CommonShare() > 0.10 {
		t.Errorf("TPC-B mix data >=90%% share = %.2f, want <= 0.10 (paper: at most 6%%)", r.MixData.CommonShare())
	}
	if len(r.PerTxn) != 1 || r.PerTxn[0].Name != "AccountUpdate" {
		t.Fatalf("PerTxn = %+v", r.PerTxn)
	}
	// Probe and update ops overlap >90%; insert's allocate-page path keeps
	// it lower (Section 2.2.1).
	for _, op := range r.PerTxn[0].Ops {
		switch op.Op {
		case trace.OpIndexProbe, trace.OpUpdateTuple:
			if op.Instr.CommonShare() < 0.85 {
				t.Errorf("%v common share %.2f, want >= 0.85", op.Op, op.Instr.CommonShare())
			}
		case trace.OpInsertTuple:
			if op.Instr.RareShare() == 0 {
				t.Error("insert has no rare blocks (allocate-page path missing)")
			}
		}
	}
}

func TestFig2TPCEMixLessCommonThanTxn(t *testing.T) {
	w := NewWorkbench(context.Background(), tinyParams(), 1)
	r := Fig2(w, "TPC-E")
	// "the instruction overlap is less in the overall TPC-E mix ...
	// However, among same-type transactions instruction overlap is still
	// significant" (Section 2.2.1).
	if len(r.PerTxn) == 0 {
		t.Fatal("no transaction types")
	}
	top := r.PerTxn[0]
	if top.Instr.CommonShare() <= r.MixInstr.CommonShare() {
		t.Errorf("same-type common share %.2f not above mix %.2f",
			top.Instr.CommonShare(), r.MixInstr.CommonShare())
	}
}

func TestFig3CommonBlocksHotter(t *testing.T) {
	w := NewWorkbench(context.Background(), tinyParams(), 1)
	r := Fig3(w)
	bands := r.TxnInstr
	always := bands[len(bands)-1]
	if always.Blocks == 0 {
		t.Fatal("no always-common instruction blocks")
	}
	// Figure 3's shape: blocks common to all instances are reused more
	// within an instance than rare blocks.
	for _, b := range bands[:2] {
		if b.Blocks > 0 && b.AvgReuse > always.AvgReuse {
			t.Errorf("rare band %v hotter (%.2f) than always band (%.2f)",
				b.Bucket, b.AvgReuse, always.AvgReuse)
		}
	}
}

func TestFig4StabilityHigh(t *testing.T) {
	w := NewWorkbench(context.Background(), tinyParams(), 1)
	r := Fig4(w, "TPC-B")
	if len(r.At1k) == 0 || len(r.At10k) == 0 {
		t.Fatal("no stability rows")
	}
	for _, row := range r.At10k {
		if row.Op == trace.OpCommit {
			continue
		}
		if row.MatchRate() < 0.5 {
			t.Errorf("%s/%v stability %.2f at large trace count, want >= 0.5",
				row.TxnName, row.Op, row.MatchRate())
		}
	}
	var sb strings.Builder
	r.Render(&sb)
	if !strings.Contains(sb.String(), "AccountUpdate") {
		t.Error("render missing transaction name")
	}
}

// TestCompareShape asserts the paper's direction claims on every TPC
// workload at three seeds (fixed before the first run, never swapped): ADDICT
// lowers L1-I MPKI and makespan against Baseline at a modest power cost
// (Section 4.4, Figure 8b). TPC-B at the default seed also pins the
// mechanism orderings.
func TestCompareShape(t *testing.T) {
	for _, wl := range []string{"TPC-B", "TPC-C", "TPC-E"} {
		for _, seed := range []int64{7, 11, 23} {
			t.Run(fmt.Sprintf("%s/seed%d", wl, seed), func(t *testing.T) {
				p := tinyParams()
				p.Seed = seed
				c := Compare(NewWorkbench(context.Background(), p, 1), wl)
				if len(c.Rows) != 4 {
					t.Fatalf("rows = %d", len(c.Rows))
				}
				add := c.Row(sched.ADDICT)
				if add.L1IN >= 1.0 {
					t.Errorf("ADDICT L1-I MPKI %.2f of Baseline, want < 1", add.L1IN)
				}
				if add.CyclesN >= 1.0 {
					t.Errorf("ADDICT cycles %.2f of Baseline, want < 1", add.CyclesN)
				}
				if add.PowerN <= 1.0 || add.PowerN > 1.6 {
					t.Errorf("ADDICT power %.2f, want (1.0, 1.6]", add.PowerN)
				}
				if wl == "TPC-B" && seed == tinyParams().Seed {
					checkTPCBOrdering(t, c)
				}
			})
		}
	}
}

// checkTPCBOrdering asserts the paper's mechanism orderings on TPC-B.
func checkTPCBOrdering(t *testing.T, c Comparison) {
	t.Helper()
	base := c.Row(sched.Baseline)
	add := c.Row(sched.ADDICT)
	slicc := c.Row(sched.SLICC)
	strex := c.Row(sched.STREX)
	if base.L1IN != 1.0 || base.CyclesN != 1.0 {
		t.Errorf("baseline not normalized to 1: %+v", base)
	}
	// The paper's ordering: ADDICT reduces L1-I the most; STREX the least.
	if !(add.L1IN < slicc.L1IN && slicc.L1IN < strex.L1IN && strex.L1IN < 1.0) {
		t.Errorf("L1-I ordering broken: ADDICT %.2f, SLICC %.2f, STREX %.2f",
			add.L1IN, slicc.L1IN, strex.L1IN)
	}
	// ADDICT and SLICC increase L1-D (computation spreading).
	if add.L1DN <= 1.0 || slicc.L1DN <= 1.0 {
		t.Errorf("spreading did not increase L1-D: ADDICT %.2f SLICC %.2f", add.L1DN, slicc.L1DN)
	}
	// STREX's batching inflates latency far above the others (Figure 6).
	if strex.LatencyN < 2.0 || strex.LatencyN < add.LatencyN {
		t.Errorf("STREX latency %.2f, ADDICT %.2f — paper: STREX 7-8x worst", strex.LatencyN, add.LatencyN)
	}
	// Fig 9 ordering: ADDICT migrates the least among the three.
	if !(add.SwitchesPerKI < slicc.SwitchesPerKI && add.SwitchesPerKI < strex.SwitchesPerKI) {
		t.Errorf("switch ordering broken: %v %v %v", add.SwitchesPerKI, slicc.SwitchesPerKI, strex.SwitchesPerKI)
	}
	// Overhead stays single-digit (Figure 9 right).
	for _, r := range c.Rows {
		if r.OverheadShare > 0.10 {
			t.Errorf("%s overhead %.1f%% exceeds 10%%", r.Mechanism, r.OverheadShare*100)
		}
	}
}

func TestFig7LargerBatchesHelp(t *testing.T) {
	w := NewWorkbench(context.Background(), tinyParams(), 1)
	r := Fig7(w, "TPC-B")
	if len(r.Points) != len(Fig7BatchSizes) {
		t.Fatalf("points = %d", len(r.Points))
	}
	first := r.Points[0]              // batch 2: lightly loaded
	mid := r.Points[3]                // batch 16
	last := r.Points[len(r.Points)-1] // batch 32
	if mid.CyclesN >= first.CyclesN || last.CyclesN >= first.CyclesN {
		t.Errorf("cycles did not improve with load: batch2=%.3f batch16=%.3f batch32=%.3f (Section 4.5)",
			first.CyclesN, mid.CyclesN, last.CyclesN)
	}
	// ADDICT must beat the full-load baseline once fully loaded.
	if mid.CyclesN >= 1.0 {
		t.Errorf("batch 16 cycles %.3f, want < 1", mid.CyclesN)
	}
}

func TestFig8aDeepHierarchySmallerWin(t *testing.T) {
	w := NewWorkbench(context.Background(), tinyParams(), 1)
	r := Fig8a(w, "TPC-B")
	// Section 4.6: gains shrink on the deep hierarchy (the private 256KB
	// L2 absorbs most of the L1-I miss penalty; our whole code layout fits
	// it, so at tiny scale the win can vanish entirely — it must not turn
	// into a clear loss).
	if r.CyclesN >= 1.1 {
		t.Errorf("deep-hierarchy ADDICT cycles %.3f, want < 1.1", r.CyclesN)
	}
	if r.CyclesN < r.ShallowCyclesN-0.02 {
		t.Errorf("deep win (%.3f) larger than shallow win (%.3f)", r.CyclesN, r.ShallowCyclesN)
	}
}

func TestAblations(t *testing.T) {
	w := NewWorkbench(context.Background(), tinyParams(), 1)
	r := Ablate(w, "TPC-B")
	if len(r.Rows) < 3 {
		t.Fatalf("ablation rows = %d", len(r.Rows))
	}
	var sb strings.Builder
	r.Render(&sb)
	if !strings.Contains(sb.String(), "no-migrate") {
		t.Error("ablation render incomplete")
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8a", "fig8b", "fig9", "ablations", "synthchar"}
	if got := IDs(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("IDs() = %v, want %v (presentation order)", got, want)
	}
}

// TestExperimentRegistryRunners runs the cheap experiments one id at a time
// end to end at micro scale (the expensive ones are covered by their dedicated
// tests above; this covers the registry plumbing and render paths).
func TestExperimentRegistryRunners(t *testing.T) {
	p := Params{
		Seed:            11,
		Scale:           0.03,
		ProfileTraces:   40,
		EvalTraces:      40,
		StabilityTraces: 60,
		Machine:         sim.Shallow(),
	}
	for _, id := range []string{"table1", "fig1", "fig3", "fig4"} {
		var sb strings.Builder
		if err := Run(context.Background(), &sb, p, 2, nil, id); err != nil {
			t.Fatalf("experiment %q: %v", id, err)
		}
		if sb.Len() == 0 {
			t.Errorf("experiment %q produced no output", id)
		}
	}
}

// TestWorkbenchCaching: repeated access must reuse artifacts, and eval
// traces must differ from profiling traces (the paper's disjoint windows).
func TestWorkbenchCaching(t *testing.T) {
	w := NewWorkbench(context.Background(), Params{Seed: 3, Scale: 0.03, ProfileTraces: 20, EvalTraces: 20, StabilityTraces: 30, Machine: sim.Shallow()}, 1)
	p1 := w.ProfileSet("TPC-B")
	p2 := w.ProfileSet("TPC-B")
	if p1 != p2 {
		t.Error("profile set not cached")
	}
	e := w.EvalSet("TPC-B")
	if e == p1 {
		t.Error("eval set aliases profiling set")
	}
	// Disjoint windows: the generator continued, so traces differ.
	same := true
	for i := range e.Traces {
		if len(e.Traces[i].Events) != len(p1.Traces[i].Events) {
			same = false
			break
		}
	}
	if same {
		t.Error("evaluation traces identical in shape to profiling traces (windows overlap?)")
	}
	if w.Profile("TPC-B") != w.Profile("TPC-B") {
		t.Error("profile not cached")
	}
}
