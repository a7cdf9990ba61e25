package sched

import (
	"addict/internal/core"
	"addict/internal/sim"
	"addict/internal/trace"
)

// ADDICT's runtime half (Algorithm 2 lines 16-31): each thread carries a
// tracker over its type's migration-point map; crossing a point migrates
// the thread to the point's core. Core selection implements Section
// 3.2.3's dynamic reassignment: stay if already on a point core, else take
// a free point core, else steal a globally idle core for this point, else
// wait in the shortest point-core queue.
type addictHooks struct {
	cores int
	asg   *core.Assignment
	ex    *sim.Executor

	// trackers/tracked are per-thread, indexed by thread ID and
	// preallocated in bind (the replay loop must not allocate); tracked is
	// false for fallback-scheduled types.
	trackers []core.Tracker
	tracked  []bool
	// pointCores is the runtime (mutable) core set per migration point;
	// stealing reassigns cores between points ("if there are any idle
	// cores that belong to another migration point, ADDICT reassigns one
	// of these idle cores to the current migration point").
	pointCores map[*core.PointAssignment][]int
	coreOwner  map[int]*core.PointAssignment
	// served remembers every core that ever hosted a point — a stolen-back
	// core that is still warm is a far better target than a cold one.
	served   map[*core.PointAssignment]map[int]bool
	fallback *baselineHooks
	// static disables replicas and stealing (ablation).
	static bool
}

func newAddictHooks(cfg Config) *addictHooks {
	cores := cfg.Machine.Cores
	asg := cfg.Profile.Assign(cores)
	// Physical remapping: rotate each type's logical core map so batches
	// of different types run on disjoint cores where possible
	// (core.TxnAssignment.Rotate).
	types := cfg.Profile.SortedTypes()
	stride := 1
	if len(types) > 1 {
		stride = cores/len(types) + 1
	}
	for i, tt := range types {
		asg.PerTxn[tt].Rotate((i*stride)%cores, cores)
	}
	if cfg.DisableReplication {
		for _, ta := range asg.PerTxn {
			ta.Entry.Cores = ta.Entry.Cores[:1]
			for _, oa := range ta.Ops {
				oa.Entry.Cores = oa.Entry.Cores[:1]
				for i := range oa.Points {
					oa.Points[i].Cores = oa.Points[i].Cores[:1]
				}
			}
		}
	}
	return &addictHooks{
		cores:      cores,
		asg:        asg,
		static:     cfg.DisableReplication,
		pointCores: make(map[*core.PointAssignment][]int),
		coreOwner:  make(map[int]*core.PointAssignment),
		served:     make(map[*core.PointAssignment]map[int]bool),
		fallback:   &baselineHooks{cores: cores},
	}
}

func (a *addictHooks) bind(ex *sim.Executor) {
	a.ex = ex
	n := len(ex.Threads())
	a.trackers = make([]core.Tracker, n)
	a.tracked = make([]bool, n)
}

func (a *addictHooks) txnAsg(t *sim.Thread) *core.TxnAssignment {
	return a.asg.PerTxn[t.Trace.Type]
}

// Place implements sim.Hooks: every transaction enters at its type's entry
// core ("each transaction takes core0 as their entry core").
func (a *addictHooks) Place(t *sim.Thread) int {
	ta := a.txnAsg(t)
	if ta == nil || ta.Fallback {
		return a.fallback.Place(t)
	}
	a.trackers[t.ID] = core.MakeTracker(ta)
	a.tracked[t.ID] = true
	return ta.Entry.Cores[0]
}

// Act implements sim.Hooks: consult the tracker; on a crossed point, pick
// the destination core.
func (a *addictHooks) Act(t *sim.Thread, ev trace.Event) sim.Action {
	if !a.tracked[t.ID] {
		return sim.Run // fallback-scheduled type
	}
	pt, crossed := a.trackers[t.ID].Next(ev)
	if !crossed {
		return sim.Run
	}
	dest := a.chooseCore(t, pt)
	if dest == t.Core {
		return sim.Run
	}
	return sim.MigrateTo(dest)
}

// chooseCore applies the dynamic core-selection policy for a migration
// point.
func (a *addictHooks) chooseCore(t *sim.Thread, pt *core.PointAssignment) int {
	set := a.pointCores[pt]
	if set == nil {
		// Capacity `cores` up front: stealing can grow a point's set to at
		// most every core, and a full-capacity start keeps the steal path
		// allocation-free for the rest of the run.
		set = make([]int, len(pt.Cores), a.cores)
		copy(set, pt.Cores)
		a.pointCores[pt] = set
		a.served[pt] = make(map[int]bool, a.cores)
		for _, c := range set {
			if a.coreOwner[c] == nil {
				a.coreOwner[c] = pt
			}
			a.served[pt][c] = true
		}
	}
	// 1. Already on a core of this point: no migration.
	for _, c := range set {
		if c == t.Core {
			return c
		}
	}
	// 2. A free core of this point.
	for _, c := range set {
		if a.ex.CoreFree(c) {
			return c
		}
	}
	// 3. Dynamic reassignment (Section 3.2.3): steal an idle core from
	// another migration point — but only under real pressure (every point
	// core already has waiters). Faulting a ~L1-I-sized action into a cold
	// core costs far more than a short wait, so transient contention
	// queues instead. Steal-backs prefer cores that served this point
	// before (still partially warm).
	best, bestLen := set[0], int(^uint(0)>>1)
	for _, c := range set {
		if l := a.ex.QueueLen(c); l < bestLen {
			best, bestLen = c, l
		}
	}
	if bestLen >= 1 && !a.static {
		warm := a.served[pt]
		for pass := 0; pass < 2; pass++ {
			for c := 0; c < a.cores; c++ {
				if !a.ex.CoreFree(c) || a.coreOwner[c] == pt {
					continue
				}
				if pass == 0 && !warm[c] {
					continue // warm steal-backs first
				}
				if a.steal(pt, c) {
					return c
				}
			}
		}
	}
	// 4. Wait in the shortest queue among the point's cores.
	return best
}

// steal reassigns idle core c to point pt, unless that would leave the
// previous owner with nothing.
func (a *addictHooks) steal(pt *core.PointAssignment, c int) bool {
	owner := a.coreOwner[c]
	if owner != nil {
		prev := a.pointCores[owner]
		if len(prev) <= 1 {
			return false
		}
		a.pointCores[owner] = removeCore(prev, c)
	}
	a.coreOwner[c] = pt
	a.pointCores[pt] = append(a.pointCores[pt], c)
	a.served[pt][c] = true
	return true
}

func removeCore(set []int, c int) []int {
	out := set[:0]
	for _, v := range set {
		if v != c {
			out = append(out, v)
		}
	}
	return out
}

// Observe implements sim.Hooks (ADDICT's decisions are purely
// software-hint driven; no feedback needed).
func (a *addictHooks) Observe(*sim.Thread, trace.Event, sim.AccessOutcome) {}
