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
// The figure experiments (5-9) and Engine.ScheduleAll compare exactly this
// set, reproducing the paper's evaluation axis.
var Mechanisms = []Mechanism{Baseline, STREX, SLICC, ADDICT}

// AllMechanisms lists every implemented mechanism family: the paper's four
// plus the related-work extensions. Name-resolving entry points
// (ParseMechanism, sweep grids, the serving API, the bench harness's extra
// cells, and the synthchar characterization) span this set.
var AllMechanisms = []Mechanism{Baseline, STREX, SLICC, ADDICT, HTMSPEC, CHAIN}

// Config parameterizes a scheduling run.
type Config struct {
	// Machine is the simulated hardware (Table 1 by default).
	Machine sim.Config
	// BatchSize is the number of same-type transactions batched together;
	// 0 means "number of cores" (the paper's default, Section 3.2.1).
	BatchSize int
	// AdmitLimit caps the number of concurrently admitted transactions
	// independently of the batch size (sweep axis: thread admission).
	// 0 keeps each mechanism's default: the batch size for SLICC and
	// ADDICT; unbounded (concurrency limited by the core queues) for
	// STREX, and for Baseline unless BatchSize models the load.
	AdmitLimit int
	// Profile supplies ADDICT's migration points (required for ADDICT).
	Profile *core.Profile

	// STREXEvictionThreshold is the number of L1-I evictions a thread
	// tolerates before STREX switches to the next thread in the batch.
	STREXEvictionThreshold int
	// SLICCWindow and SLICCMissThreshold define SLICC's miss-burst
	// detector: a migration triggers when the last SLICCWindow instruction
	// fetches contain at least SLICCMissThreshold misses.
	SLICCWindow        int
	SLICCMissThreshold int
	// SLICCCooldown is the minimum number of fetches between two SLICC
	// migrations of the same thread.
	SLICCCooldown int

	// HTMSPECReadSetLines and HTMSPECWriteSetLines bound HTMSPEC's
	// per-thread speculative read/write sets (in 64-byte cache lines); an
	// operation window touching more distinct lines than either cap takes
	// a capacity abort.
	HTMSPECReadSetLines  int
	HTMSPECWriteSetLines int
	// HTMSPECMaxAborts is the number of aborts a thread tolerates before
	// it permanently falls back to the non-speculative Baseline path
	// (the standard bounded-retry HTM fallback policy).
	HTMSPECMaxAborts int

	// CHAINMinOpEvents is the minimum remaining length (in trace events)
	// of an operation window for CHAIN to chase it to the operation's
	// home core; shorter windows run in place because the migration cost
	// would outweigh the instruction-locality gain.
	CHAINMinOpEvents int

	// DisableReplication strips ADDICT's surplus-core replicas and dynamic
	// stealing, leaving exactly one core per migration point — the
	// load-balancing ablation of Section 3.2.3's "fewer migration points
	// than cores" rule.
	DisableReplication bool

	// BatchBarrier makes ADDICT and SLICC admit strictly one batch at a
	// time (batch b+1 starts only after batch b drains) instead of the
	// default sliding window of BatchSize in-flight transactions.
	BatchBarrier bool
}

// DefaultConfig returns the paper's evaluation setup on the given machine.
// The mechanism knobs are calibrated once against the paper's Figure 5/6/9
// shape (see EXPERIMENTS.md) and frozen.
func DefaultConfig(machine sim.Config) Config {
	return Config{
		Machine:                machine,
		STREXEvictionThreshold: 64,
		SLICCWindow:            32,
		SLICCMissThreshold:     16,
		SLICCCooldown:          128,
		HTMSPECReadSetLines:    64,
		HTMSPECWriteSetLines:   32,
		HTMSPECMaxAborts:       4,
		CHAINMinOpEvents:       24,
	}
}

func (c Config) batchSize() int {
	if c.BatchSize > 0 {
		return c.BatchSize
	}
	return c.Machine.Cores
}

// Run wires the mechanism's hooks, batching, and admission policy into an
// executor, replays the trace set, and returns the simulation result.
func Run(mech Mechanism, s *trace.Set, cfg Config) (sim.Result, error) {
	m := sim.NewMachine(cfg.Machine)
	// admit applies the explicit admission cap, if any, over a mechanism's
	// default in-flight bound.
	admit := func(def int) int {
		if cfg.AdmitLimit > 0 {
			return cfg.AdmitLimit
		}
		return def
	}
	var ex *sim.Executor
	switch mech {
	case Baseline:
		hooks := &baselineHooks{cores: cfg.Machine.Cores}
		ex = sim.NewExecutor(m, hooks, s.Traces)
		// An explicit batch size models server load for Baseline too
		// (Figure 7 compares mechanisms at equal concurrency).
		ex.AdmitLimit = admit(cfg.BatchSize)
	case STREX:
		ordered := batchByType(s.Traces, cfg.batchSize())
		hooks := newStrexHooks(cfg)
		ex = sim.NewExecutor(m, hooks, ordered)
		ex.AdmitLimit = admit(0)
		applyBatches(ex, ordered, cfg.batchSize())
	case SLICC:
		ordered := batchByType(s.Traces, cfg.batchSize())
		hooks := newSliccHooks(cfg)
		ex = sim.NewExecutor(m, hooks, ordered)
		ex.AdmitLimit = admit(cfg.batchSize())
		ex.BatchBarrier = cfg.BatchBarrier
		applyBatches(ex, ordered, cfg.batchSize())
		hooks.bind(ex)
	case ADDICT:
		if cfg.Profile == nil {
			return sim.Result{}, fmt.Errorf("sched: ADDICT requires a migration-point profile")
		}
		ordered := batchByType(s.Traces, cfg.batchSize())
		hooks := newAddictHooks(cfg)
		ex = sim.NewExecutor(m, hooks, ordered)
		ex.AdmitLimit = admit(cfg.batchSize())
		ex.BatchBarrier = cfg.BatchBarrier
		applyBatches(ex, ordered, cfg.batchSize())
		hooks.bind(ex)
	case HTMSPEC:
		ordered := batchByType(s.Traces, cfg.batchSize())
		hooks := newHTMSpecHooks(cfg)
		ex = sim.NewExecutor(m, hooks, ordered)
		// Concurrency bounded by the core queues (like STREX): HTMSPEC is
		// Baseline plus speculation, so it runs at Baseline's width and
		// pays only for aborts.
		ex.AdmitLimit = admit(0)
		applyBatches(ex, ordered, cfg.batchSize())
		hooks.bind(ex)
	case CHAIN:
		ordered := batchByType(s.Traces, cfg.batchSize())
		hooks := newChainHooks(cfg, ordered)
		ex = sim.NewExecutor(m, hooks, ordered)
		ex.AdmitLimit = admit(cfg.batchSize())
		ex.BatchBarrier = cfg.BatchBarrier
		applyBatches(ex, ordered, cfg.batchSize())
		hooks.bind(ex)
	default:
		return sim.Result{}, unknownMechanism(string(mech))
	}
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

// applyBatches stamps batch indices onto the executor's threads (threads
// are created in `ordered` order).
func applyBatches(ex *sim.Executor, ordered []*trace.Trace, b int) {
	threads := ex.Threads()
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
