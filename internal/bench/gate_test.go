package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"addict/internal/sched"
	"addict/internal/sweep"
)

// gateReport builds a synthetic report whose cells carry the given
// events/sec, in (workload, mechanism) grid order, with a consistent
// events-weighted aggregate (equal event weight per cell).
func gateReport(workloads, mechanisms []string, eps func(w, m string) float64) *Report {
	rep := &Report{
		Schema:        schemaID,
		Seed:          42,
		Scale:         0.5,
		ProfileTraces: 250,
		EvalTraces:    250,
		MinRuns:       2,
		MinDuration:   300 * time.Millisecond,
	}
	const events = 1_000_000
	for _, w := range workloads {
		for _, m := range mechanisms {
			e := eps(w, m)
			rep.Cells = append(rep.Cells, Cell{
				Workload:     w,
				Mechanism:    m,
				Events:       events,
				Runs:         2,
				EventsPerSec: e,
				NsPerEvent:   1e9 / e,
			})
			rep.Replay.Events += 2 * events
			rep.Replay.Seconds += 2 * events / e
		}
	}
	rep.Replay.EventsPerSec = float64(rep.Replay.Events) / rep.Replay.Seconds
	rep.Replay.NsPerEvent = rep.Replay.Seconds * 1e9 / float64(rep.Replay.Events)
	return rep
}

var (
	gateWorkloads  = []string{"TPC-B", "synth:uniform-ro"}
	gateMechanisms = []string{"Baseline", "ADDICT"}
)

// TestGateCatchesMaskedCellRegression is the acceptance scenario: one cell
// regresses 40% while every other cell doubles, so the events-weighted
// aggregate *improves* — the old aggregate-only check passes — yet the
// per-cell gate must fail, on exactly that cell.
func TestGateCatchesMaskedCellRegression(t *testing.T) {
	base := gateReport(gateWorkloads, gateMechanisms, func(w, m string) float64 { return 1e6 })
	cur := gateReport(gateWorkloads, gateMechanisms, func(w, m string) float64 {
		if w == "synth:uniform-ro" && m == "ADDICT" {
			return 0.6e6 // the masked regression: 40% down
		}
		return 2e6
	})

	// The old gate's only signal: the aggregate clears a 15% budget.
	f, err := Compare(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if f.SpeedupEventsPerSec < 1-0.15 {
		t.Fatalf("aggregate speedup %.3fx should mask the cell regression in this scenario", f.SpeedupEventsPerSec)
	}

	v, err := f.ApplyGate(GateConfig{MaxCellRegress: 0.15, MaxRegress: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if v.Pass {
		t.Fatalf("per-cell gate passed a 40%% single-cell regression: %s", v.Summary())
	}
	if !v.AggregatePass {
		t.Errorf("aggregate check should pass (it is the masking bug): %s", v.Summary())
	}
	if v.WorstWorkload != "synth:uniform-ro" || v.WorstMechanism != "ADDICT" {
		t.Errorf("worst cell %s/%s, want synth:uniform-ro/ADDICT", v.WorstWorkload, v.WorstMechanism)
	}
	// Normalized: current norm = 0.6/2 = 0.3 against baseline norm 1.
	if v.WorstNormRatio > 0.31 || v.WorstNormRatio < 0.29 {
		t.Errorf("worst normalized ratio %.3f, want ~0.30", v.WorstNormRatio)
	}
	failing := 0
	for _, c := range v.Cells {
		if !c.Pass {
			failing++
			if c.Workload != "synth:uniform-ro" || c.Mechanism != "ADDICT" {
				t.Errorf("unexpected failing cell %s/%s", c.Workload, c.Mechanism)
			}
		}
	}
	if failing != 1 {
		t.Errorf("%d failing cells, want exactly 1", failing)
	}
	if f.Gate == nil {
		t.Error("ApplyGate did not record the verdict in the file")
	}
}

// TestGateNormalizedRatioMachineInvariance: scaling every cell of the
// current run by a uniform machine-speed factor must leave every
// normalized ratio exactly 1 — machine speed divides out — while the raw
// speedups carry the factor.
func TestGateNormalizedRatioMachineInvariance(t *testing.T) {
	base := gateReport(gateWorkloads, gateMechanisms, func(w, m string) float64 {
		// Unequal cells, so the normalization is non-trivial.
		if m == "ADDICT" {
			return 1.5e6
		}
		return 1e6
	})
	const machineSpeed = 4 // power of two: the scaling is float-exact
	cur := gateReport(gateWorkloads, gateMechanisms, func(w, m string) float64 {
		if m == "ADDICT" {
			return machineSpeed * 1.5e6
		}
		return machineSpeed * 1e6
	})
	v, err := Gate(base, cur, GateConfig{MaxCellRegress: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Pass {
		t.Fatalf("uniform %dx machine scaling tripped the normalized gate: %s", machineSpeed, v.Summary())
	}
	for _, c := range v.Cells {
		if c.NormRatio != 1 {
			t.Errorf("%s/%s: normalized ratio %v under uniform scaling, want exactly 1", c.Workload, c.Mechanism, c.NormRatio)
		}
		if c.RawSpeedup != machineSpeed {
			t.Errorf("%s/%s: raw speedup %v, want %d", c.Workload, c.Mechanism, c.RawSpeedup, machineSpeed)
		}
	}

	// The same scaling downward trips only the (machine-dependent)
	// aggregate check, never the normalized cells.
	slow := gateReport(gateWorkloads, gateMechanisms, func(w, m string) float64 {
		if m == "ADDICT" {
			return 1.5e6 / machineSpeed
		}
		return 1e6 / machineSpeed
	})
	v, err = Gate(base, slow, GateConfig{MaxCellRegress: 0.01, MaxRegress: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if v.Pass || v.AggregatePass {
		t.Errorf("uniform slowdown must trip the aggregate check: %s", v.Summary())
	}
	for _, c := range v.Cells {
		if !c.Pass {
			t.Errorf("%s/%s failed the normalized check under a uniform slowdown", c.Workload, c.Mechanism)
		}
	}
}

// withAllocs stamps every cell of a gate report with allocation metrics.
func withAllocs(r *Report, allocs func(w, m string) (perEvent, bytesPerEvent float64)) *Report {
	for i := range r.Cells {
		c := &r.Cells[i]
		c.AllocsPerEvent, c.BytesPerEvent = allocs(c.Workload, c.Mechanism)
	}
	return r
}

// TestGateAllocTrajectoryFloor: the allocation-metric trajectory check —
// a cell whose allocs/event or bytes/event grow past
// baseline*(1+MaxAllocRegress)+slack must fail the gate even when its
// throughput is fine, and growth inside the budget (or inside the additive
// slack, for a zero-alloc baseline) must pass.
func TestGateAllocTrajectoryFloor(t *testing.T) {
	flat := func(w, m string) float64 { return 1e6 }
	base := withAllocs(gateReport(gateWorkloads, gateMechanisms, flat),
		func(w, m string) (float64, float64) { return 10, 800 })
	cfg := GateConfig{MaxCellRegress: 0.15, MaxAllocRegress: 0.5}

	// Identical allocation behavior passes, and the verdict records it.
	cur := withAllocs(gateReport(gateWorkloads, gateMechanisms, flat),
		func(w, m string) (float64, float64) { return 10, 800 })
	v, err := Gate(base, cur, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Pass {
		t.Fatalf("unchanged alloc trajectory failed: %s", v.Summary())
	}
	if v.AllocCeiling != 1.5 {
		t.Errorf("alloc ceiling %v, want 1.5", v.AllocCeiling)
	}
	for _, c := range v.Cells {
		if !c.AllocPass || c.BaselineAllocsPerEvent != 10 || c.CurrentBytesPerEvent != 800 {
			t.Errorf("%s/%s: alloc fields not recorded: %+v", c.Workload, c.Mechanism, c)
		}
	}

	// One cell's allocs/event blow past the ceiling (10*1.5+0.5 = 15.5)
	// while its throughput is unchanged: the gate must fail on exactly
	// that cell, via AllocPass, with the throughput check still passing.
	cur = withAllocs(gateReport(gateWorkloads, gateMechanisms, flat),
		func(w, m string) (float64, float64) {
			if w == "TPC-B" && m == "ADDICT" {
				return 16, 800
			}
			return 10, 800
		})
	v, err = Gate(base, cur, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v.Pass {
		t.Fatalf("60%% allocs/event growth passed a 50%% budget: %s", v.Summary())
	}
	for _, c := range v.Cells {
		wantFail := c.Workload == "TPC-B" && c.Mechanism == "ADDICT"
		if c.AllocPass == wantFail {
			t.Errorf("%s/%s: AllocPass=%v", c.Workload, c.Mechanism, c.AllocPass)
		}
		if !c.Pass {
			t.Errorf("%s/%s: throughput check failed on an alloc-only regression", c.Workload, c.Mechanism)
		}
	}
	if !strings.Contains(v.Summary(), "alloc regress") || !strings.Contains(v.Summary(), "TPC-B/ADDICT") {
		t.Errorf("summary does not name the alloc regression: %s", v.Summary())
	}

	// Bytes/event alone regressing (800*1.5+64 = 1264) fails the same way.
	cur = withAllocs(gateReport(gateWorkloads, gateMechanisms, flat),
		func(w, m string) (float64, float64) {
			if w == "TPC-B" && m == "Baseline" {
				return 10, 1300
			}
			return 10, 800
		})
	if v, err = Gate(base, cur, cfg); err != nil {
		t.Fatal(err)
	} else if v.Pass {
		t.Errorf("bytes/event regression passed: %s", v.Summary())
	}

	// A zero-alloc baseline pins the cell near zero: growth inside the
	// additive slack passes, growth past it fails — the slack keeps the
	// multiplicative budget from demanding exact zero forever without
	// letting allocations creep back in.
	zeroBase := withAllocs(gateReport(gateWorkloads, gateMechanisms, flat),
		func(w, m string) (float64, float64) { return 0, 100 })
	within := withAllocs(gateReport(gateWorkloads, gateMechanisms, flat),
		func(w, m string) (float64, float64) { return 0.4, 100 })
	if v, err = Gate(zeroBase, within, cfg); err != nil {
		t.Fatal(err)
	} else if !v.Pass {
		t.Errorf("growth inside the additive slack failed: %s", v.Summary())
	}
	crept := withAllocs(gateReport(gateWorkloads, gateMechanisms, flat),
		func(w, m string) (float64, float64) { return 0.6, 100 })
	if v, err = Gate(zeroBase, crept, cfg); err != nil {
		t.Fatal(err)
	} else if v.Pass {
		t.Errorf("allocations crept past the slack on a zero-alloc baseline: %s", v.Summary())
	}

	// A baseline that never recorded allocation metrics (both zero —
	// pre-trajectory BENCH files) is skipped, not judged against zero.
	unrecorded := gateReport(gateWorkloads, gateMechanisms, flat)
	heavy := withAllocs(gateReport(gateWorkloads, gateMechanisms, flat),
		func(w, m string) (float64, float64) { return 50, 4000 })
	if v, err = Gate(unrecorded, heavy, cfg); err != nil {
		t.Fatal(err)
	} else if !v.Pass {
		t.Errorf("unrecorded baseline was judged against zero: %s", v.Summary())
	}

	// The alloc check alone is an enabled check; a negative budget refuses.
	if _, err := Gate(base, base, GateConfig{MaxAllocRegress: 0.5}); err != nil {
		t.Errorf("alloc-only gate refused: %v", err)
	}
	if _, err := Gate(base, base, GateConfig{MaxAllocRegress: -0.1}); err == nil {
		t.Error("negative alloc budget accepted")
	}
}

// TestGateVerdictByteStable: gating the same two artifacts twice must
// produce byte-identical verdicts (JSON and rendered table) — the gate is
// a pure function of its inputs.
func TestGateVerdictByteStable(t *testing.T) {
	base := withAllocs(gateReport(gateWorkloads, gateMechanisms, func(w, m string) float64 {
		return 1e6 + float64(len(w)+len(m))*1e4
	}), func(w, m string) (float64, float64) { return float64(len(w)), float64(64 * len(m)) })
	cur := withAllocs(gateReport(gateWorkloads, gateMechanisms, func(w, m string) float64 {
		return 1.1e6 + float64(len(w)*len(m))*1e4
	}), func(w, m string) (float64, float64) { return float64(len(m)), float64(64 * len(w)) })
	cfg := GateConfig{MaxCellRegress: 0.25, MaxRegress: 0.5, MaxAllocRegress: 0.5}
	render := func() ([]byte, []byte) {
		v, err := Gate(base, cur, cfg)
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var tbl bytes.Buffer
		if err := v.WriteTable(&tbl); err != nil {
			t.Fatal(err)
		}
		return js, tbl.Bytes()
	}
	js1, tbl1 := render()
	js2, tbl2 := render()
	if !bytes.Equal(js1, js2) {
		t.Errorf("verdict JSON not byte-stable:\n%s\nvs\n%s", js1, js2)
	}
	if !bytes.Equal(tbl1, tbl2) {
		t.Errorf("verdict table not byte-stable:\n%s\nvs\n%s", tbl1, tbl2)
	}
}

// TestCompareRefusesMismatchedCellSets: pairing reports over different
// workload sets (the BENCH_3-vs-BENCH_5 trap) must refuse, naming the odd
// cells, for Compare and Gate alike.
func TestCompareRefusesMismatchedCellSets(t *testing.T) {
	flat := func(w, m string) float64 { return 1e6 }
	tpcOnly := gateReport([]string{"TPC-B"}, gateMechanisms, flat)
	withSynth := gateReport(gateWorkloads, gateMechanisms, flat)

	if _, err := Compare(tpcOnly, withSynth); err == nil {
		t.Error("Compare accepted reports over different workload sets")
	} else if !strings.Contains(err.Error(), "not comparable") || !strings.Contains(err.Error(), "synth:uniform-ro") {
		t.Errorf("mismatch error does not name the odd cells: %v", err)
	}
	if _, err := Gate(tpcOnly, withSynth, GateConfig{MaxCellRegress: 0.15}); err == nil {
		t.Error("Gate accepted reports over different workload sets")
	}
	// Same workloads, different mechanism sets is the same bug.
	fewMechs := gateReport(gateWorkloads, []string{"Baseline"}, flat)
	if _, err := Compare(fewMechs, withSynth); err == nil {
		t.Error("Compare accepted reports over different mechanism sets")
	}
}

// TestGateRefusesPrePR9Baseline models the BENCH_9 trajectory break: the
// default cell set gained two extra cells (the speculative mechanisms on
// the contended synthetic regime), so a baseline recorded from the older
// grid-only configuration must be refused — by Compare and by Gate — with
// the odd cells named, instead of silently judging a different aggregate.
func TestGateRefusesPrePR9Baseline(t *testing.T) {
	flat := func(w, m string) float64 { return 1e6 }
	old := gateReport(gateWorkloads, gateMechanisms, flat) // pre-PR-9 shape
	cur := gateReport(gateWorkloads, gateMechanisms, flat)
	for _, m := range []string{"HTMSPEC", "CHAIN"} {
		cur.Cells = append(cur.Cells, Cell{
			Workload: "synth:zipf-hot-rw", Mechanism: m,
			Events: 1_000_000, Runs: 2, EventsPerSec: 1e6, NsPerEvent: 1e3,
		})
	}
	if err := Comparable(old, cur); err == nil {
		t.Error("Comparable accepted a baseline lacking the extra cells")
	} else if !strings.Contains(err.Error(), "HTMSPEC") || !strings.Contains(err.Error(), "CHAIN") {
		t.Errorf("refusal does not name the missing cells: %v", err)
	}
	if _, err := Compare(old, cur); err == nil {
		t.Error("Compare accepted a baseline lacking the extra cells")
	}
	if _, err := Gate(old, cur, GateConfig{MaxCellRegress: 0.15}); err == nil {
		t.Error("Gate accepted a baseline lacking the extra cells")
	}
}

// TestComparableMeasurementBounds: mismatched recorded bounds refuse, but
// a v1 baseline with no recorded bounds (zero) is accepted as unknown.
func TestComparableMeasurementBounds(t *testing.T) {
	flat := func(w, m string) float64 { return 1e6 }
	base := gateReport(gateWorkloads, gateMechanisms, flat)
	cur := gateReport(gateWorkloads, gateMechanisms, flat)

	cur.MinRuns = 5
	if err := Comparable(base, cur); err == nil || !strings.Contains(err.Error(), "runs") {
		t.Errorf("mismatched MinRuns accepted: %v", err)
	}
	cur.MinRuns = base.MinRuns
	cur.MinDuration = base.MinDuration * 2
	if err := Comparable(base, cur); err == nil || !strings.Contains(err.Error(), "min") {
		t.Errorf("mismatched MinDuration accepted: %v", err)
	}
	cur.MinDuration = base.MinDuration

	// A pre-v2 baseline records no bounds; zero means unknown, not zero.
	base.MinRuns, base.MinDuration = 0, 0
	if err := Comparable(base, cur); err != nil {
		t.Errorf("baseline without recorded bounds refused: %v", err)
	}
}

// TestGateNeedsReferenceCell: a run measured without the reference
// mechanism cannot be normalized and must refuse rather than fabricate
// ratios.
func TestGateNeedsReferenceCell(t *testing.T) {
	flat := func(w, m string) float64 { return 1e6 }
	base := gateReport(gateWorkloads, []string{"STREX", "ADDICT"}, flat)
	cur := gateReport(gateWorkloads, []string{"STREX", "ADDICT"}, flat)
	if _, err := Gate(base, cur, GateConfig{MaxCellRegress: 0.15}); err == nil {
		t.Error("Gate normalized without a Baseline reference cell")
	} else if !strings.Contains(err.Error(), ReferenceMechanism) {
		t.Errorf("refusal does not name the missing reference mechanism: %v", err)
	}
}

// TestGateRequiresEnabledCheck: a gate with both budgets zero judges
// nothing and must say so.
func TestGateRequiresEnabledCheck(t *testing.T) {
	flat := func(w, m string) float64 { return 1e6 }
	base := gateReport(gateWorkloads, gateMechanisms, flat)
	if _, err := Gate(base, base, GateConfig{}); err == nil {
		t.Error("gate with no enabled check accepted")
	}
	if _, err := Gate(base, base, GateConfig{MaxCellRegress: 1.5}); err == nil {
		t.Error("out-of-range cell budget accepted")
	}
}

// TestZeroSeedExpressible: seed 0 used to be swallowed by a zero-means-
// default sentinel. The report records the session cache's seed, so a
// seed-0 session reports 0 and any other seed itself.
func TestZeroSeedExpressible(t *testing.T) {
	cfg := Config{
		Workloads:   []string{"TPC-B"},
		Mechanisms:  sched.Mechanisms[:1],
		MinRuns:     1,
		MinDuration: 1,
	}
	for _, seed := range []int64{42, 0, 7} {
		rep, err := Run(context.Background(), cfg, nil, sweep.NewArtifacts(seed, 0.02, 10, 10, 1, 0, nil))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Seed != seed {
			t.Errorf("session seed %d recorded as %d", seed, rep.Seed)
		}
	}
}

// TestReadFileBaselineOnly: a file carrying only a baseline used to fall
// through to the bare-report parse and report `unknown schema ""` — the
// error must say what is actually missing.
func TestReadFileBaselineOnly(t *testing.T) {
	rep := gateReport(gateWorkloads, gateMechanisms, func(w, m string) float64 { return 1e6 })
	data, err := json.Marshal(&File{Baseline: rep})
	if err != nil {
		t.Fatal(err)
	}
	_, err = ReadFile(bytes.NewReader(data))
	if err == nil {
		t.Fatal("baseline-only file accepted")
	}
	if !strings.Contains(err.Error(), "no current report") {
		t.Errorf("misleading error for baseline-only file: %v", err)
	}
	if strings.Contains(err.Error(), "unknown schema") {
		t.Errorf("still the old misleading error: %v", err)
	}
}
