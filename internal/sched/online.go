package sched

import (
	"fmt"

	"addict/internal/core"
	"addict/internal/sim"
	"addict/internal/trace"
)

// RunOnline is ADDICT's pure-dynamic deployment (Section 3.1.3): "ADDICT
// can perform this step as a part of the ramp-up time (a few seconds)
// without making any specialized scheduling decisions for transactions and
// then switch to migrating transactions based on the information collected
// in this step."
//
// The first rampUp transactions run under traditional scheduling while
// Algorithm 1 profiles them; the remainder run under ADDICT with the
// freshly computed migration points. Returns the combined result plus the
// profile it learned.
func RunOnline(s *trace.Set, cfg Config, rampUp int, noMigrate func(uint64) bool) (sim.Result, *core.Profile, error) {
	if rampUp <= 0 || rampUp >= len(s.Traces) {
		return sim.Result{}, nil, fmt.Errorf("sched: ramp-up %d must be within (0, %d)", rampUp, len(s.Traces))
	}
	pcfg := core.ProfileConfig{L1I: cfg.Machine.L1I, NoMigrate: noMigrate}
	prof := core.FindMigrationPoints(s.Slice(0, rampUp), pcfg)

	// Ramp-up transactions run in arrival order (no batching under
	// traditional scheduling); serving-phase batches follow.
	ordered := append(append([]*trace.Trace(nil), s.Traces[:rampUp]...),
		batchByType(s.Traces[rampUp:], cfg.batchSize())...)
	cfg.Profile = prof
	h := &onlineHooks{
		rampUp:   rampUp,
		baseline: &baselineHooks{cores: cfg.Machine.Cores},
		addict:   newAddictHooks(cfg),
	}
	return replay(cfg, h, ordered, 0), prof, nil
}

// onlineHooks runs ramp-up threads under baseline rules and the rest under
// ADDICT.
type onlineHooks struct {
	rampUp   int
	baseline *baselineHooks
	addict   *addictHooks
}

// Place implements sim.Hooks.
func (o *onlineHooks) Place(t *sim.Thread) int {
	if t.ID < o.rampUp {
		return o.baseline.Place(t)
	}
	return o.addict.Place(t)
}

// Act implements sim.Hooks.
func (o *onlineHooks) Act(t *sim.Thread, ev trace.Event) sim.Action {
	if t.ID < o.rampUp {
		return o.baseline.Act(t, ev)
	}
	return o.addict.Act(t, ev)
}

// Observe implements sim.Hooks.
func (o *onlineHooks) Observe(t *sim.Thread, ev trace.Event, out sim.AccessOutcome) {
	if t.ID < o.rampUp {
		o.baseline.Observe(t, ev, out)
		return
	}
	o.addict.Observe(t, ev, out)
}

func (o *onlineHooks) bind(ex *sim.Executor) { o.addict.bind(ex) }
