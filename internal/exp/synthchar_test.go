package exp

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"addict/internal/sched"
)

// TestSynthCharRankingDiffersFromTPCB is the acceptance check of the
// synthetic-workload subsystem: at least one shipped preset must induce a
// different mechanism ranking than TPC-B — the scenario axes genuinely
// move the outcome, they don't just re-measure the TPC regime.
func TestSynthCharRankingDiffersFromTPCB(t *testing.T) {
	p := tinyParams()
	r := SynthChar(NewWorkbench(context.Background(), p, 4))
	if len(r.Rows) < 5 {
		t.Fatalf("characterized %d scenarios, want TPC-B + >= 4 presets", len(r.Rows))
	}
	if r.Rows[0].Workload != "TPC-B" {
		t.Fatalf("reference row is %q, want TPC-B", r.Rows[0].Workload)
	}
	for _, row := range r.Rows {
		if len(row.Ranking) != len(sched.AllMechanisms) {
			t.Fatalf("%s: ranking has %d mechanisms, want %d", row.Workload, len(row.Ranking), len(sched.AllMechanisms))
		}
	}
	if !r.RankingDiffersFromFirst() {
		for _, row := range r.Rows {
			t.Logf("%s: %s", row.Workload, row.RankingString())
		}
		t.Error("every preset ranks the mechanisms exactly like TPC-B")
	}
	// The new families must take part in the movement: HTMSPEC or CHAIN
	// must occupy a different rank position on some preset than on TPC-B
	// (the extensions characterize differently across the scenario space,
	// they don't just pad every ranking in a fixed slot).
	pos := func(row SynthCharRow, m sched.Mechanism) int {
		for i, r := range row.Ranking {
			if r == m {
				return i
			}
		}
		return -1
	}
	moved := false
	for _, row := range r.Rows[1:] {
		if pos(row, sched.HTMSPEC) != pos(r.Rows[0], sched.HTMSPEC) ||
			pos(row, sched.CHAIN) != pos(r.Rows[0], sched.CHAIN) {
			moved = true
			break
		}
	}
	if !moved {
		for _, row := range r.Rows {
			t.Logf("%s: %s", row.Workload, row.RankingString())
		}
		t.Error("HTMSPEC and CHAIN hold the same rank position on every preset as on TPC-B")
	}
}

// TestSynthCharRender sanity-checks the rendered sections.
func TestSynthCharRender(t *testing.T) {
	r := SynthCharResult{Rows: []SynthCharRow{
		{Workload: "TPC-B", Ranking: []sched.Mechanism{sched.ADDICT, sched.SLICC, sched.HTMSPEC, sched.Baseline, sched.CHAIN, sched.STREX}},
	}}
	var buf bytes.Buffer
	r.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "Synthetic workloads: mechanism ranking") {
		t.Errorf("missing ranking section:\n%s", out)
	}
	if !strings.Contains(out, "ADDICT < SLICC < HTMSPEC < Baseline < CHAIN < STREX") {
		t.Errorf("missing ranking string:\n%s", out)
	}
}
