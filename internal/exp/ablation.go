package exp

import (
	"io"

	"addict/internal/core"
	"addict/internal/sched"
	"addict/internal/sim"
	"addict/internal/stats"
)

// Ablations probe the design choices DESIGN.md calls out:
//
//   - no-migrate zones (Section 3.1.3): profile WITHOUT the critical-section
//     filter, allowing migration points inside lock/latch/log code;
//   - load balancing (Section 3.2.3): disable surplus replication so every
//     migration point keeps exactly one core;
//   - prev-point ordering (Algorithm 2 line 25): covered in unit tests (the
//     tracker refuses out-of-order migration), not here, since disabling it
//     changes correctness rather than performance;
//   - LLC pressure: shrink the shared cache to emulate the paper's
//     dataset:cache ratio (DESIGN.md documents why a laptop-scale dataset
//     cannot pressure a 16MB L2 organically).
type AblationResult struct {
	Workload string
	Rows     []AblationRow
}

// AblationRow compares one variant against the default ADDICT run.
type AblationRow struct {
	Name    string
	CyclesN float64 // over Baseline
	L1IN    float64 // over Baseline
	LLCN    float64 // over Baseline
}

// Ablate runs the variants on one workload.
func Ablate(w *Workbench, workloadName string) AblationResult {
	res := AblationResult{Workload: workloadName}
	set := w.EvalSet(workloadName)
	base := w.Result(workloadName, sched.Baseline)
	bm := base.Machine

	norm := func(name string, r sim.Result) {
		res.Rows = append(res.Rows, AblationRow{
			Name:    name,
			CyclesN: ratio(float64(r.Makespan), float64(base.Makespan)),
			L1IN:    ratio(r.Machine.MPKI(r.Machine.L1IMisses), bm.MPKI(bm.L1IMisses)),
			LLCN:    ratio(r.Machine.MPKI(r.Machine.SharedMisses), bm.MPKI(bm.SharedMisses)),
		})
	}

	// Reference: default ADDICT.
	norm("ADDICT (default)", w.Result(workloadName, sched.ADDICT))

	// Variant 1: no no-migrate zones — points may land inside short
	// critical sections.
	pcfg := core.ProfileConfig{L1I: w.P.Machine.L1I} // no NoMigrate filter
	profNoZones := core.FindMigrationPoints(w.ProfileSet(workloadName), pcfg)
	cfg := sched.Config{Machine: w.P.Machine, Profile: profNoZones}
	if r, err := sched.Run(sched.ADDICT, set, cfg); err == nil {
		norm("no no-migrate zones", r)
	}

	// Variant 2: single core per migration point (no surplus replication):
	// emulated by assigning on a machine of exactly the needed size — the
	// scheduler still runs on the full machine, but no point has replicas.
	profNoLB := w.Profile(workloadName)
	cfg2 := sched.Config{Machine: w.P.Machine, Profile: profNoLB, DisableReplication: true}
	if r, err := sched.Run(sched.ADDICT, set, cfg2); err == nil {
		norm("no surplus replication", r)
	}

	// Variant 3: LLC pressure — shared cache scaled to 1/16 (1MB total),
	// emulating a dataset:LLC ratio closer to the paper's 100GB:16MB.
	small := w.P.Machine
	small.Shared.SizeBytes = small.Shared.SizeBytes / 16
	cfg3 := sched.Config{Machine: small, Profile: w.Profile(workloadName)}
	baseSmall, err1 := sched.Run(sched.Baseline, set, cfg3)
	addSmall, err2 := sched.Run(sched.ADDICT, set, cfg3)
	if err1 == nil && err2 == nil {
		res.Rows = append(res.Rows, AblationRow{
			Name:    "LLC-pressure machine (1/16 shared cache)",
			CyclesN: ratio(float64(addSmall.Makespan), float64(baseSmall.Makespan)),
			L1IN:    ratio(addSmall.Machine.MPKI(addSmall.Machine.L1IMisses), baseSmall.Machine.MPKI(baseSmall.Machine.L1IMisses)),
			LLCN:    ratio(addSmall.Machine.MPKI(addSmall.Machine.SharedMisses), baseSmall.Machine.MPKI(baseSmall.Machine.SharedMisses)),
		})
	}
	return res
}

// Render prints the ablation table.
func (r AblationResult) Render(out io.Writer) {
	section(out, "Ablations — "+r.Workload+" (normalized over the matching Baseline)")
	t := &stats.Table{Header: []string{"variant", "cycles norm", "L1-I norm", "LLC norm"}}
	for _, row := range r.Rows {
		t.AddRow(row.Name, stats.F(row.CyclesN, 3), stats.F(row.L1IN, 3), stats.F(row.LLCN, 3))
	}
	t.Render(out)
}
