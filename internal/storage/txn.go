package storage

import (
	"fmt"

	"addict/internal/trace"
)

// Txn is a transaction context: an ID, the locks held (released at commit —
// strict two-phase locking), and the last LSN written.
//
// A load transaction (BeginLoad) populates a database alone: it starts
// only when no lock is held and no other load is live, and until it
// commits or aborts any other transaction's lock request panics. It emits
// the same trace and counts the same LockStats as a Begin transaction
// doing the same work, but its locks never enter the lock table.
type Txn struct {
	id    uint64
	locks []heldLock
	// counted is the number of load grants made while the manager was
	// untraced: they are kept by count, not by name, and released by count.
	counted uint64
	lastLSN uint64
	done    bool
}

// ID returns the transaction identifier.
func (t *Txn) ID() uint64 { return t.id }

// LockCount returns the number of lock acquisitions currently held.
func (t *Txn) LockCount() int { return len(t.locks) + int(t.counted) }

// Begin starts a transaction and emits the txn_begin glue code. The caller
// is responsible for the surrounding trace markers (Buffer.TxnBegin with
// the workload's transaction type, which the storage manager does not know).
func (m *Manager) Begin() *Txn {
	m.nextTxn++
	txn := &Txn{id: m.nextTxn}
	m.emitAll(&m.seg.txnBegin)
	return txn
}

// BeginLoad starts a load transaction: Begin for a transaction that runs
// alone, such as the one that populates a fresh database. It panics if any
// lock is held or another load transaction is live.
func (m *Manager) BeginLoad() *Txn {
	if lm := m.lock; lm.load != nil {
		panic(fmt.Sprintf("storage: BeginLoad while load txn %d is live", lm.load.id))
	} else if len(lm.table) > 0 {
		panic(fmt.Sprintf("storage: BeginLoad while %d locks are held", len(lm.table)))
	}
	txn := m.Begin()
	m.lock.load = txn
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
	m.opBegin(trace.OpCommit)
	m.emitRange(&m.seg.txnCommit, 0, 50)
	m.wal.insert(m, txn, logCommit, 16)
	m.lock.releaseAll(m, txn)
	m.emitRange(&m.seg.txnCommit, 50, 90)
	m.opEnd(trace.OpCommit)
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
