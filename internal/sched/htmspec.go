package sched

import (
	"addict/internal/sim"
	"addict/internal/trace"
)

// HTMSPEC models a bounded hardware-transactional-memory mechanism in the
// style of limited read/write-set HTM proposals that need no ISA or
// coherence-protocol changes (arXiv 2510.15888): each database operation
// window (OpBegin..OpEnd) runs as one speculative region. The hardware
// tracks the region's read and write sets in small per-thread line
// buffers; at the operation's end the region validates and commits. A
// region aborts when a set overflows its bound (capacity abort) or when a
// tracked line was written by another thread since the region began
// (conflict abort). An abort costs a backoff reschedule — the thread
// migrates to the least-queued core and retries there — and after
// HTMSPECMaxAborts aborts the thread permanently falls back to the
// non-speculative Baseline path, the standard bounded-retry fallback.
//
// The replay engine executes every event exactly once, so an abort is
// modeled as its cost (the migration plus the requeue delay), not as
// a rollback-and-re-execute of the window: the instruction and data
// streams stay identical across mechanisms (the ACID-neutrality invariant
// every mechanism shares — see TestAllMechanismsExecuteEverything).
//
// Conflict detection is eager and approximate, as in signature-based HTM:
// a fixed-size, direct-mapped last-writer table records the most recent
// writer and a global write stamp per line slot. Validation checks every
// tracked line against the table; slot aliasing can hide an older writer
// (a lost conflict), never invent one for a line nobody wrote. All
// decisions happen at OpEnd markers only; every other event runs in place.
type htmSpecHooks struct {
	cores     int
	readCap   int
	writeCap  int
	maxAborts int
	ex        *sim.Executor

	// st is per-thread speculation state, indexed by thread ID and
	// preallocated in bind (the replay loop must not allocate).
	st   []htmState
	next int // round-robin entry placement cursor

	// The last-writer conflict table: direct-mapped over line-address
	// hashes. lineTab holds the resident line, stampTab the global write
	// stamp of its latest write, ownerTab the writing thread. clock is
	// the global stamp, advanced once per data write by any thread.
	lineTab  []uint64
	stampTab []uint64
	ownerTab []int32
	clock    uint64

	stats sim.SpecStats
}

// htmState is one thread's speculation context.
type htmState struct {
	readSet  []uint64 // tracked read lines (readSet[:nr])
	writeSet []uint64 // tracked written lines (writeSet[:nw])
	nr, nw   int
	// startStamp is the global write stamp at the current region's begin;
	// only writes stamped after it can conflict.
	startStamp  uint64
	speculating bool
	overflow    bool
	fellBack    bool
	aborts      int
}

// htmTableBits sizes the last-writer table (2^13 = 8192 slots, ~160 KiB —
// fixed, so its cost amortizes to zero per event).
const htmTableBits = 13

func newHTMSpecHooks(cfg Config) *htmSpecHooks {
	return &htmSpecHooks{
		cores:     cfg.Machine.Cores,
		readCap:   cfg.HTMSPECReadSetLines,
		writeCap:  cfg.HTMSPECWriteSetLines,
		maxAborts: cfg.HTMSPECMaxAborts,
		lineTab:   make([]uint64, 1<<htmTableBits),
		stampTab:  make([]uint64, 1<<htmTableBits),
		ownerTab:  make([]int32, 1<<htmTableBits),
	}
}

func (h *htmSpecHooks) bind(ex *sim.Executor) {
	h.ex = ex
	n := len(ex.Threads())
	h.st = make([]htmState, n)
	// One backing array per set kind: per-thread slices carved out of it,
	// so the steady-state loop never allocates.
	reads := make([]uint64, n*h.readCap)
	writes := make([]uint64, n*h.writeCap)
	for i := range h.st {
		h.st[i].readSet = reads[i*h.readCap : (i+1)*h.readCap]
		h.st[i].writeSet = writes[i*h.writeCap : (i+1)*h.writeCap]
	}
}

// SpecStats implements sim.SpecReporter: the run's abort/fallback counters.
func (h *htmSpecHooks) SpecStats() sim.SpecStats { return h.stats }

// Place implements sim.Hooks: round-robin entry placement (the Baseline
// rule) — speculation needs concurrency to be worth anything, so HTMSPEC
// keeps the machine as wide as Baseline does and pays for contention only
// when a region actually aborts.
func (h *htmSpecHooks) Place(t *sim.Thread) int {
	c := h.next
	h.next = (h.next + 1) % h.cores
	return c
}

// slot hashes a line address into the conflict table.
func (h *htmSpecHooks) slot(line uint64) int {
	return int((line * 0x9E3779B97F4A7C15) >> (64 - htmTableBits))
}

// Act implements sim.Hooks. The only decision point is an operation's end
// marker: a speculating thread validates its region there. Validation
// failure aborts — clear the sets, count the abort, and pay the abort
// penalty: the thread backs off to the least-queued core (a migration
// charge plus the requeue delay, modeling the discard-and-reschedule of a
// real HTM abort). The marker then executes at the destination without
// another decision, so each failed validation is charged exactly once.
func (h *htmSpecHooks) Act(t *sim.Thread, ev trace.Event) sim.Action {
	if ev.Kind != trace.KindOpEnd {
		return sim.Run
	}
	st := &h.st[t.ID]
	if !st.speculating {
		return sim.Run
	}
	if st.overflow {
		return h.abort(t, st, true)
	}
	if h.conflicts(st.readSet[:st.nr], st.startStamp, t.ID) ||
		h.conflicts(st.writeSet[:st.nw], st.startStamp, t.ID) {
		return h.abort(t, st, false)
	}
	return sim.Run // validated: the region commits
}

// conflicts reports whether any tracked line was last written by another
// thread after the region began.
func (h *htmSpecHooks) conflicts(lines []uint64, start uint64, me int) bool {
	for _, line := range lines {
		s := h.slot(line)
		if h.lineTab[s] == line && h.stampTab[s] > start && h.ownerTab[s] != int32(me) {
			return true
		}
	}
	return false
}

// abort records one abort, resets the thread's speculation, applies the
// fallback policy, and backs the thread off to the next core as the abort
// penalty.
func (h *htmSpecHooks) abort(t *sim.Thread, st *htmState, capacity bool) sim.Action {
	if capacity {
		h.stats.CapacityAborts++
	} else {
		h.stats.ConflictAborts++
	}
	st.aborts++
	st.speculating = false
	st.nr, st.nw = 0, 0
	st.overflow = false
	if st.aborts >= h.maxAborts && !st.fellBack {
		st.fellBack = true
		h.stats.Fallbacks++
	}
	// Reschedule on the least-queued core (ties to the lowest index, so
	// the choice is deterministic). If that is the current core, MigrateTo
	// degrades to Run: the retry is immediate and free, as a real
	// same-core HTM retry would be.
	dest := 0
	for c := 1; c < h.cores; c++ {
		if h.ex.QueueLen(c) < h.ex.QueueLen(dest) {
			dest = c
		}
	}
	return sim.MigrateTo(dest)
}

// Observe implements sim.Hooks: region bookkeeping. Every data write —
// speculative or not, fallback threads included — publishes to the
// last-writer table, so non-speculating writers still abort speculating
// readers.
func (h *htmSpecHooks) Observe(t *sim.Thread, ev trace.Event, out sim.AccessOutcome) {
	st := &h.st[t.ID]
	switch ev.Kind {
	case trace.KindOpBegin:
		if !st.fellBack {
			st.nr, st.nw = 0, 0
			st.overflow = false
			st.startStamp = h.clock
			st.speculating = true
		}
	case trace.KindOpEnd:
		// Region closed (committed at Act, or aborted there).
		st.speculating = false
		st.nr, st.nw = 0, 0
		st.overflow = false
	case trace.KindDataRead:
		if st.speculating {
			st.nr = addLine(st.readSet, st.nr, ev.Addr, &st.overflow)
		}
	case trace.KindDataWrite:
		h.clock++
		s := h.slot(ev.Addr)
		h.lineTab[s] = ev.Addr
		h.stampTab[s] = h.clock
		h.ownerTab[s] = int32(t.ID)
		if st.speculating {
			st.nw = addLine(st.writeSet, st.nw, ev.Addr, &st.overflow)
		}
	}
}

// addLine inserts a line into a bounded set (linear-probe dedup; regions
// are short, so n stays small), marking overflow when the set is full.
func addLine(set []uint64, n int, line uint64, overflow *bool) int {
	for i := 0; i < n; i++ {
		if set[i] == line {
			return n
		}
	}
	if n == len(set) {
		*overflow = true
		return n
	}
	set[n] = line
	return n + 1
}

var _ sim.SpecReporter = (*htmSpecHooks)(nil)
