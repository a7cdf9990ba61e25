package sched

import (
	"addict/internal/sim"
	"addict/internal/trace"
)

// STREX (Atta et al., ISCA 2013) boosts instruction-cache reuse by
// stratified execution: a batch of same-type transactions shares ONE core
// and time-multiplexes at cache-sized strata. The lead thread faults a
// stratum of code into the L1-I; when the cache fills (evictions mount),
// STREX switches to the next transaction in the batch, which re-executes
// the same stratum out of the warm cache. It is hardware-only: no software
// hints, no multi-core spreading — which is why the paper finds it the
// weakest on L1-I misses (-20%) and the worst on latency (7-8× Baseline,
// every transaction spans its whole batch) and LLC pressure (+50%, one
// core's L2 window serves 16 live transactions).
type strexHooks struct {
	cores     int
	threshold int
	// evictions is the per-core cache-fill monitor: L1-I evictions on the
	// core since the last switch, regardless of which thread caused them.
	// (A per-core monitor is what the STREX hardware implements; it also
	// lets batch members drift out of stratum alignment, which is the
	// paper's explanation for STREX's modest L1-I gains.)
	evictions []int
	// batchCore pins each batch to one core, chosen by least assigned
	// work so skewed mixes (TPC-C's huge Delivery vs small Payment
	// batches) stay balanced.
	batchCore map[int]int
	coreWork  []uint64
}

func newStrexHooks(cfg Config) *strexHooks {
	return &strexHooks{
		cores:     cfg.Machine.Cores,
		threshold: cfg.STREXEvictionThreshold,
		evictions: make([]int, cfg.Machine.Cores),
		batchCore: make(map[int]int),
		coreWork:  make([]uint64, cfg.Machine.Cores),
	}
}

// Place implements sim.Hooks: each batch is pinned to one core — the
// least-loaded one when the batch first arrives.
func (s *strexHooks) Place(t *sim.Thread) int {
	c, ok := s.batchCore[t.Batch]
	if !ok {
		c = 0
		for i := 1; i < s.cores; i++ {
			if s.coreWork[i] < s.coreWork[c] {
				c = i
			}
		}
		s.batchCore[t.Batch] = c
	}
	s.coreWork[c] += uint64(len(t.Trace.Events))
	return c
}

// Act implements sim.Hooks: switch to the next batch thread once the
// core's monitor has seen `threshold` evictions (the stratum boundary).
func (s *strexHooks) Act(t *sim.Thread, ev trace.Event) sim.Action {
	if ev.Kind != trace.KindInstr {
		return sim.Run
	}
	if s.evictions[t.Core] >= s.threshold {
		s.evictions[t.Core] = 0
		return sim.Yield
	}
	return sim.Run
}

// Observe implements sim.Hooks: feed the per-core fill monitor.
func (s *strexHooks) Observe(t *sim.Thread, ev trace.Event, out sim.AccessOutcome) {
	if ev.Kind == trace.KindInstr && out.L1Evict {
		s.evictions[t.Core]++
	}
}
