package power

import "addict/internal/sim"

// Weights are the per-event energy costs in arbitrary energy units
// (relative magnitudes follow the usual CMP breakdowns: DRAM ≫ LLC ≫ L1).
type Weights struct {
	Instruction  float64 // per retired instruction
	L1Access     float64 // L1-I or L1-D access
	SharedAccess float64 // shared-cache bank access
	NoCHop       float64 // one interconnect hop
	MemAccess    float64 // DRAM access
	Migration    float64 // thread-context transfer (~6 cache lines)
	Invalidation float64 // coherence invalidation
	StaticCycle  float64 // per core-cycle of wall-clock (leakage + clocks)
}

// DefaultWeights returns the calibrated weights (static ≈ 45% of a typical
// Baseline run's energy, the usual server-core split).
func DefaultWeights() Weights {
	return Weights{
		Instruction:  0.40,
		L1Access:     0.05,
		SharedAccess: 0.50,
		NoCHop:       0.10,
		MemAccess:    8.0,
		Migration:    15.0,
		Invalidation: 0.50,
		StaticCycle:  0.55,
	}
}

// Report is the power analysis of one run.
type Report struct {
	// TotalEnergy is the run's total energy (arbitrary units).
	TotalEnergy float64
	// AvgCorePower is energy / makespan / cores — Figure 8b's metric.
	AvgCorePower float64
	// Breakdown attributes energy to components.
	Breakdown struct {
		Dynamic, Caches, NoC, Memory, Migration, Static float64
	}
}

// Analyze computes the power report for a completed run.
func Analyze(res sim.Result, w Weights) Report {
	m := res.Machine
	var rep Report

	rep.Breakdown.Dynamic = float64(m.Instructions) * w.Instruction
	rep.Breakdown.Caches = float64(m.L1IStats.Accesses+m.L1DStats.Accesses)*w.L1Access +
		float64(m.SharedStats.Accesses)*w.SharedAccess
	rep.Breakdown.NoC = float64(m.NoCHops)*w.NoCHop +
		float64(m.Invalidation)*w.Invalidation
	rep.Breakdown.Memory = float64(m.SharedMisses) * w.MemAccess
	rep.Breakdown.Migration = float64(res.Migrations+res.ContextSwitches) * w.Migration
	cores := len(res.CoreActive)
	if cores == 0 {
		cores = m.Cfg.Cores
	}
	rep.Breakdown.Static = float64(res.Makespan) * float64(cores) * w.StaticCycle

	rep.TotalEnergy = rep.Breakdown.Dynamic + rep.Breakdown.Caches +
		rep.Breakdown.NoC + rep.Breakdown.Memory + rep.Breakdown.Migration +
		rep.Breakdown.Static
	if res.Makespan > 0 && cores > 0 {
		rep.AvgCorePower = rep.TotalEnergy / float64(res.Makespan) / float64(cores)
	}
	return rep
}
