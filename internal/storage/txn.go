package storage

import "addict/internal/trace"

// Txn is a transaction context: an ID, the locks held (released at commit —
// strict two-phase locking), and the last LSN written.
type Txn struct {
	id      uint64
	locks   []heldLock
	lastLSN uint64
	done    bool
}

// ID returns the transaction identifier.
func (t *Txn) ID() uint64 { return t.id }

// LockCount returns the number of lock acquisitions currently held.
func (t *Txn) LockCount() int { return len(t.locks) }

// Begin starts a transaction and emits the txn_begin glue code. The caller
// is responsible for the surrounding trace markers (Recorder.TxnBegin with
// the workload's transaction type, which the storage manager does not know).
func (m *Manager) Begin() *Txn {
	m.nextTxn++
	txn := &Txn{id: m.nextTxn}
	m.seg.txnBegin.EmitAll(m.rec)
	return txn
}

// Commit writes the commit record, releases all locks, and emits the
// txn_commit code, bracketed as the OpCommit epilogue action. ADDICT's
// migrations "have no effect on ACID properties" (Section 3.2.5): commit
// order and lock lifetimes are identical under every scheduling mechanism
// because scheduling happens at trace-replay time, not here.
func (m *Manager) Commit(txn *Txn) {
	if txn.done {
		panic("storage: commit of finished transaction")
	}
	m.rec.OpBegin(trace.OpCommit)
	m.seg.txnCommit.EmitRange(m.rec, 0, 50)
	m.wal.insert(m, txn, logCommit, 16)
	m.lock.releaseAll(m, txn)
	m.seg.txnCommit.EmitRange(m.rec, 50, 90)
	m.rec.OpEnd(trace.OpCommit)
	txn.done = true
}

// Abort releases locks without a commit record. (No undo is modeled: trace
// generation never aborts mid-operation; the method exists for API
// completeness and tests.)
func (m *Manager) Abort(txn *Txn) {
	if txn.done {
		panic("storage: abort of finished transaction")
	}
	m.lock.releaseAll(m, txn)
	txn.done = true
}
