package exp

import (
	"io"
	"sort"
	"strings"

	"addict/internal/sched"
	"addict/internal/stats"
	"addict/internal/workload/synth"
)

// SynthWorkloads lists the synthetic-characterization scenarios: TPC-B as
// the reference point the paper's mixes anchor, then every shipped preset
// in sorted order.
func SynthWorkloads() []string {
	names := []string{"TPC-B"}
	for _, p := range synth.Presets() {
		names = append(names, synth.NamePrefix+p)
	}
	return names
}

// SynthCharRow is one scenario's four-mechanism outcome plus the ranking
// it induces.
type SynthCharRow struct {
	Workload string
	Rows     []MechRow
	// Ranking orders the mechanisms by normalized cycles, best (fewest)
	// first; ties break in presentation order.
	Ranking []sched.Mechanism
}

// RankingString renders the ranking as "ADDICT < SLICC < Baseline < STREX"
// (left is fastest).
func (r SynthCharRow) RankingString() string {
	parts := make([]string, len(r.Ranking))
	for i, m := range r.Ranking {
		parts[i] = string(m)
	}
	return strings.Join(parts, " < ")
}

// SynthCharResult is the synthetic-workload characterization: how the
// mechanism ranking moves across the scenario space the presets span.
type SynthCharResult struct {
	Rows []SynthCharRow
}

// SynthChar replays TPC-B and every shipped synthetic preset under every
// mechanism family — the paper's four plus HTMSPEC and CHAIN — (through
// the shared workbench, so the TPC-B replays are the same cached runs the
// figures use) and ranks the mechanisms per scenario. This is the
// experiment behind the claim that the scenario axes matter: the ranking
// that holds on the TPC mixes does not hold across the synthetic space.
func SynthChar(w *Workbench) SynthCharResult {
	var res SynthCharResult
	for _, name := range SynthWorkloads() {
		res.Rows = append(res.Rows, synthCharRow(w, name))
	}
	return res
}

// synthCharRow characterizes one scenario — the per-scenario unit the
// report fans out over.
func synthCharRow(w *Workbench, name string) SynthCharRow {
	c := CompareMechs(w, name, sched.AllMechanisms)
	ranking := make([]sched.Mechanism, len(c.Rows))
	perm := make([]int, len(c.Rows))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		return c.Rows[perm[a]].CyclesN < c.Rows[perm[b]].CyclesN
	})
	for i, p := range perm {
		ranking[i] = c.Rows[p].Mechanism
	}
	return SynthCharRow{Workload: name, Rows: c.Rows, Ranking: ranking}
}

// RankingDiffersFromFirst reports whether any scenario ranks the
// mechanisms differently than the first (reference) row.
func (r SynthCharResult) RankingDiffersFromFirst() bool {
	if len(r.Rows) == 0 {
		return false
	}
	ref := r.Rows[0].RankingString()
	for _, row := range r.Rows[1:] {
		if row.RankingString() != ref {
			return true
		}
	}
	return false
}

// Render prints the characterization: the per-scenario metric table, then
// the induced rankings.
func (r SynthCharResult) Render(out io.Writer) {
	section(out, "Synthetic workloads: mechanism outcomes across scenarios")
	t := &stats.Table{Header: []string{"workload", "mechanism", "cycles norm", "latency norm", "L1-I norm", "L1-I mpki", "sw/ki"}}
	for _, row := range r.Rows {
		for _, m := range row.Rows {
			t.AddRow(row.Workload, string(m.Mechanism),
				stats.F(m.CyclesN, 3), stats.F(m.LatencyN, 3),
				stats.F(m.L1IN, 3), stats.F(m.L1I, 2),
				stats.F(m.SwitchesPerKI, 3))
		}
	}
	t.Render(out)

	section(out, "Synthetic workloads: mechanism ranking (fastest first)")
	rt := &stats.Table{Header: []string{"workload", "ranking"}}
	for _, row := range r.Rows {
		rt.AddRow(row.Workload, row.RankingString())
	}
	rt.Render(out)
}
