package core

import "addict/internal/trace"

// Tracker is the per-thread runtime automaton of Algorithm 2 (lines 16-31):
// it watches a transaction's event stream and reports when the thread
// crosses a migration point, enforcing the previous-point order check
// ("it migrates a transaction upon encountering a migration point only if
// that transaction has already executed the previous migration point in
// the sequence", Section 3.2.1).
type Tracker struct {
	asg   *TxnAssignment
	curOp *OpAssignment
	prev  uint64
	inOp  bool
}

// MakeTracker starts tracking one transaction under its type's core map.
// It returns the tracker by value, so callers keep trackers in a
// preallocated slice (the zero-alloc replay path).
func MakeTracker(asg *TxnAssignment) Tracker {
	return Tracker{asg: asg}
}

// Next consumes one event and returns the migration point crossed, if any.
// The returned pointer aliases the assignment (treat as read-only).
func (tk *Tracker) Next(ev trace.Event) (*PointAssignment, bool) {
	if tk.asg == nil || tk.asg.Fallback {
		return nil, false
	}
	switch ev.Kind() {
	case trace.KindTxnBegin:
		return &tk.asg.Entry, true
	case trace.KindOpBegin:
		oa, ok := tk.asg.Ops[ev.Op()]
		if !ok {
			// An operation unseen during profiling: no scheduling hints;
			// the thread stays where it is (profiling with 1000 traces
			// makes this rare — Figure 4).
			tk.curOp = nil
			tk.inOp = true
			return nil, false
		}
		tk.curOp = oa
		tk.prev = 0
		tk.inOp = true
		return &oa.Entry, true
	case trace.KindOpEnd:
		tk.curOp = nil
		tk.inOp = false
		return nil, false
	case trace.KindInstr:
		if tk.curOp == nil {
			return nil, false
		}
		for i := range tk.curOp.Points {
			pt := &tk.curOp.Points[i]
			if pt.Addr == ev.Addr() && pt.Prev == tk.prev {
				tk.prev = ev.Addr()
				return pt, true
			}
		}
		return nil, false
	default:
		return nil, false
	}
}

// Reset prepares the tracker for a new transaction of the same type.
func (tk *Tracker) Reset() {
	tk.curOp = nil
	tk.prev = 0
	tk.inOp = false
}
