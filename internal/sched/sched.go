package sched

import (
	"fmt"

	"addict/internal/core"
	"addict/internal/sim"
	"addict/internal/trace"
)

// Mechanism names a scheduling mechanism.
type Mechanism string

// The evaluated mechanisms. Baseline, STREX, SLICC, and ADDICT are the
// paper's four; HTMSPEC and CHAIN are the related-work extensions (see
// doc.go for provenance).
const (
	Baseline Mechanism = "Baseline"
	STREX    Mechanism = "STREX"
	SLICC    Mechanism = "SLICC"
	ADDICT   Mechanism = "ADDICT"
	HTMSPEC  Mechanism = "HTMSPEC"
	CHAIN    Mechanism = "CHAIN"
)

// Mechanisms lists the paper's four mechanisms in its presentation order.
// The figure experiments (5-9) and Engine.ScheduleSet compare exactly this
// set, reproducing the paper's evaluation axis.
var Mechanisms = []Mechanism{Baseline, STREX, SLICC, ADDICT}

// AllMechanisms lists every implemented mechanism family: the paper's four
// plus the related-work extensions. Name-resolving entry points
// (ParseMechanism, sweep grids, the serving API, the bench harness's extra
// cells, and the synthchar characterization) span this set.
var AllMechanisms = []Mechanism{Baseline, STREX, SLICC, ADDICT, HTMSPEC, CHAIN}

// Config parameterizes a scheduling run. A Config holding only a Machine is
// the paper's evaluation setup on that machine; the mechanism knobs are
// package constants (STREXEvictionThreshold, SLICCWindow, ...), calibrated
// once against the paper's Figure 5/6/9 shape and frozen.
type Config struct {
	// Machine is the simulated hardware (Table 1 by default).
	Machine sim.Config
	// BatchSize is the number of same-type transactions batched together;
	// 0 means "number of cores" (the paper's default, Section 3.2.1).
	BatchSize int
	// AdmitLimit caps the number of concurrently admitted transactions
	// independently of the batch size (sweep axis: thread admission).
	// 0 keeps each mechanism's default: the batch size for SLICC, ADDICT
	// and CHAIN; unbounded (concurrency limited by the core queues) for
	// STREX and HTMSPEC, and for Baseline unless BatchSize models the
	// load.
	AdmitLimit int
	// Profile supplies ADDICT's migration points (required for ADDICT).
	Profile *core.Profile
	// DisableReplication strips ADDICT's surplus-core replicas and dynamic
	// stealing, leaving exactly one core per migration point — the
	// load-balancing ablation of Section 3.2.3's "fewer migration points
	// than cores" rule.
	DisableReplication bool
}

func (c Config) batchSize() int {
	if c.BatchSize > 0 {
		return c.BatchSize
	}
	return c.Machine.Cores
}

// hooks is one mechanism's runtime half: the executor callbacks plus bind,
// which sizes per-thread state once the executor has created the threads
// (the replay loop must not allocate).
type hooks interface {
	sim.Hooks
	bind(ex *sim.Executor)
}

// Run picks the mechanism's hooks, trace order, and default in-flight
// bound, replays the trace set, and returns the simulation result.
func Run(mech Mechanism, s *trace.Set, cfg Config) (sim.Result, error) {
	cores := cfg.Machine.Cores
	var h hooks
	// By default a mechanism admits one batch at a time.
	limit := cfg.batchSize()
	switch mech {
	case Baseline:
		// An explicit batch size models server load for Baseline too
		// (Figure 7 compares mechanisms at equal concurrency).
		h, limit = &baselineHooks{cores: cores}, cfg.BatchSize
	case STREX:
		h, limit = newStrexHooks(cores), 0
	case SLICC:
		h = newSliccHooks(cores)
	case ADDICT:
		if cfg.Profile == nil {
			return sim.Result{}, fmt.Errorf("sched: ADDICT requires a migration-point profile")
		}
		h = newAddictHooks(cfg)
	case HTMSPEC:
		// Concurrency bounded by the core queues (like STREX): HTMSPEC is
		// Baseline plus speculation, so it runs at Baseline's width and
		// pays only for aborts.
		h, limit = newHTMSpecHooks(cores), 0
	case CHAIN:
		h = newChainHooks(cores, s.Traces)
	default:
		return sim.Result{}, unknownMechanism(string(mech))
	}
	// Baseline runs in arrival order; every other mechanism batches
	// same-type transactions.
	ordered := s.Traces
	if mech != Baseline {
		ordered = batchByType(s.Traces, cfg.batchSize())
	}
	// A fresh machine, threads in ordered order stamped with their
	// batches, the in-flight bound (the explicit AdmitLimit over the
	// mechanism's default), and the hooks bound to the threads. Batch
	// numbers steer only STREX, SLICC and CHAIN placement and STREX's
	// yield; the other hooks never read them.
	ex := sim.NewExecutor(sim.NewMachine(cfg.Machine), h, ordered)
	if cfg.AdmitLimit > 0 {
		limit = cfg.AdmitLimit
	}
	ex.AdmitLimit = limit
	applyBatches(ex.Threads(), ordered, cfg.batchSize())
	h.bind(ex)
	return ex.Run(), nil
}

// batchByType reorders traces so same-type transactions are grouped into
// batches of size b, preserving arrival order within a type — "same-type
// transactions from the list of client requests form a batch" (Algorithm 2
// lines 16-17). Batches of different types follow each other in first-
// arrival order.
func batchByType(traces []*trace.Trace, b int) []*trace.Trace {
	byType := make(map[trace.TxnType][]*trace.Trace)
	var typeOrder []trace.TxnType
	for _, t := range traces {
		if _, seen := byType[t.Type]; !seen {
			typeOrder = append(typeOrder, t.Type)
		}
		byType[t.Type] = append(byType[t.Type], t)
	}
	// Round-robin over types at batch granularity, mimicking a dispatcher
	// draining per-type request queues.
	out := make([]*trace.Trace, 0, len(traces))
	for len(out) < len(traces) {
		for _, tt := range typeOrder {
			q := byType[tt]
			if len(q) == 0 {
				continue
			}
			n := b
			if n > len(q) {
				n = len(q)
			}
			out = append(out, q[:n]...)
			byType[tt] = q[n:]
		}
	}
	return out
}

// applyBatches stamps batch indices onto threads created in `ordered`
// order: a batch holds at most b consecutive threads of one type.
func applyBatches(threads []*sim.Thread, ordered []*trace.Trace, b int) {
	batch := 0
	count := 0
	var cur trace.TxnType
	for i, th := range threads {
		if count == b || (count > 0 && ordered[i].Type != cur) {
			batch++
			count = 0
		}
		cur = ordered[i].Type
		th.Batch = batch
		count++
	}
}

// baselineHooks is traditional scheduling: each transaction starts and
// finishes on one core; cores pull transactions in arrival order.
type baselineHooks struct {
	cores int
	next  int
}

// Place implements sim.Hooks by round-robin core assignment.
func (b *baselineHooks) Place(t *sim.Thread) int {
	c := b.next
	b.next = (b.next + 1) % b.cores
	return c
}

// Act implements sim.Hooks: never migrate, never yield.
func (b *baselineHooks) Act(*sim.Thread, trace.Event) sim.Action { return sim.Run }

// Observe implements sim.Hooks.
func (b *baselineHooks) Observe(*sim.Thread, trace.Event, sim.AccessOutcome) {}

func (b *baselineHooks) bind(*sim.Executor) {}
