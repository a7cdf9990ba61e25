package sched

import (
	"addict/internal/sim"
	"addict/internal/trace"
)

// CHAIN is a chaining-aware variant informed by the RISC-V instruction
// chaining extension (arXiv 2503.20609): dependent instruction windows —
// here, a transaction's database-operation invocations — are treated as
// chain links that commit as a unit on the core that owns the link's code.
// Every (transaction type, operation type) pair gets a home core, assigned
// round-robin the first time any thread reaches that operation; threads
// reaching an operation's begin marker chase the chain to its home, where
// the operation's instruction working set is already resident from every
// previous execution of the same operation. Consecutive links that share a
// home fuse: no migration is issued when the thread already sits on the
// home core.
//
// CHAIN is what ADDICT's software-guided migration looks like without a
// profiling pass: operation markers alone pick the migration points, so
// homes are op-type-granular rather than L1-I-capacity-sized. Short
// operations are not worth chasing — the migration cost would outweigh
// the locality gain — so links shorter than CHAINMinOpEvents run in place
// (the chain "fuses through" them).
type chainHooks struct {
	cores int
	ex    *sim.Executor
	// home maps txnType*NumOpTypes+opType → home core (-1 unassigned);
	// nextHome rotates assignments so chains pipeline across cores.
	home     []int
	nextHome int
}

// CHAINMinOpEvents is the minimum remaining length (in trace events) of an
// operation window for CHAIN to chase it to the operation's home core.
const CHAINMinOpEvents = 24

// chainLookahead caps the op-length scan at Act time.
const chainLookahead = 256

// chainMaxQueue is the congestion bypass: a chain link runs in place when
// its home core already has this many waiters (queueing behind a convoy
// costs more than refetching the operation's code).
const chainMaxQueue = 2

func newChainHooks(cores int, traces []*trace.Trace) *chainHooks {
	maxType := 0
	for _, tr := range traces {
		if int(tr.Type) > maxType {
			maxType = int(tr.Type)
		}
	}
	home := make([]int, (maxType+1)*trace.NumOpTypes)
	for i := range home {
		home[i] = -1
	}
	return &chainHooks{cores: cores, home: home}
}

func (c *chainHooks) bind(ex *sim.Executor) { c.ex = ex }

// Place implements sim.Hooks: batches enter round-robin across cores; the
// chain takes over from the first operation marker.
func (c *chainHooks) Place(t *sim.Thread) int { return t.Batch % c.cores }

// Act implements sim.Hooks. The only decision point is an operation's
// begin marker: resolve (or first-assign) the operation's home core and
// chase the chain there when the link is long enough to repay the
// migration.
func (c *chainHooks) Act(t *sim.Thread, ev trace.Event) sim.Action {
	if ev.Kind() != trace.KindOpBegin {
		return sim.Run
	}
	idx := int(t.Trace.Type)*trace.NumOpTypes + int(ev.Op())
	home := c.home[idx]
	if home < 0 {
		home = c.nextHome
		c.nextHome = (c.nextHome + 1) % c.cores
		c.home[idx] = home
	}
	if home == t.Core || c.opLen(t) < CHAINMinOpEvents {
		return sim.Run
	}
	if c.ex.QueueLen(home) >= chainMaxQueue {
		return sim.Run // congested home: break the chain, run in place
	}
	return sim.MigrateTo(home)
}

// opLen measures the current operation window (the thread stands on its
// OpBegin) in events, up to the lookahead cap.
func (c *chainHooks) opLen(t *sim.Thread) int {
	events := t.Trace.Events
	end := t.Pos() + chainLookahead
	if end > len(events) {
		end = len(events)
	}
	for i := t.Pos() + 1; i < end; i++ {
		if events[i].Kind() == trace.KindOpEnd {
			return i - t.Pos()
		}
	}
	return end - t.Pos()
}

// Observe implements sim.Hooks (CHAIN takes no outcome feedback).
func (c *chainHooks) Observe(*sim.Thread, trace.Event, sim.AccessOutcome) {}
