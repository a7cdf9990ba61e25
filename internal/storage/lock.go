package storage

import (
	"fmt"
	"slices"
)

// LockMode is the requested access mode.
type LockMode uint8

// Lock modes: shared (readers) and exclusive (writers).
const (
	LockS LockMode = iota
	LockX
)

// String returns "S" or "X".
func (m LockMode) String() string {
	if m == LockX {
		return "X"
	}
	return "S"
}

// lockName identifies a lockable object: a (space, key) pair where space is
// a table or index ID and key is a record key or page number. space is
// widened to 64 bits so the struct has no padding and hashes as one
// 16-byte word.
type lockName struct {
	space uint64
	key   uint64
}

// heldLock is one acquisition recorded in Txn.locks: the lock's name and
// its table entry, so commit-time release needs no table lookup.
type heldLock struct {
	name  lockName
	entry *lockEntry
}

// lockEntry tracks the holders of one lock. Trace generation runs one
// transaction at a time, so a lock almost always has exactly one holder:
// holders starts on the entry's inline array and only a shared lock held
// by several transactions spills to the heap.
type lockEntry struct {
	mode    LockMode
	holders []lockHolder
	inline  [1]lockHolder
}

// lockHolder is one transaction's hold on a lock.
type lockHolder struct {
	txn   uint64
	count int // acquisitions not yet released
}

// holder returns the index of txn in e.holders, or -1.
func (e *lockEntry) holder(txn uint64) int {
	for i, h := range e.holders {
		if h.txn == txn {
			return i
		}
	}
	return -1
}

// lockManager is a hash-partitioned S/X lock table. Trace generation is
// single-threaded (deterministic), so requests never block; conflicting
// requests from *other* transactions fail fast and are counted — the
// workload drivers are written so this does not occur, and tests assert the
// conflict behaviour directly.
type lockManager struct {
	table map[lockName]*lockEntry
	free  []*lockEntry // released entries, reused by later acquisitions

	acquires, releases, conflicts uint64
}

func newLockManager() *lockManager {
	return &lockManager{table: make(map[lockName]*lockEntry)}
}

func lockBucketAddr(n lockName) uint64 {
	h := (uint64(n.space)*0x9e3779b97f4a7c15 ^ n.key) * 0xff51afd7ed558ccd
	return LockBase + (h%LockBuckets)*64
}

// lockHeaderAddr is the lock-table header block read on every acquisition —
// one of the paper's few commonly shared data blocks.
func lockHeaderAddr() uint64 { return LockBase + LockBuckets*64 }

// acquire takes a lock for txn, emitting the instrumented lock_acquire
// path. Re-acquisition by the holder and S→X upgrade by a sole holder
// succeed; conflicts return false.
//
// Code-range map for lock_acquire (120 blocks):
//
//	[0,30)   hash + header checks
//	[30,50)  bucket chain walk (looped per chain hop)
//	[50,95)  grant fast path (the Shore-MT speculative-lock-inheritance
//	         style fast path, Section 4.1)
//	[95,120) conflict/queue path
func (lm *lockManager) acquire(m *Manager, txn *Txn, space uint32, key uint64, mode LockMode) bool {
	name := lockName{space: uint64(space), key: key}
	m.seg.lockAcquire.EmitRange(m.rec, 0, 30)
	m.dataRead(lockHeaderAddr())
	m.seg.lockAcquire.EmitLoop(m.rec, 30, 50, 1)
	m.dataRead(lockBucketAddr(name))

	e, ok := lm.table[name]
	if !ok {
		e = lm.newEntry(mode, txn.id)
		lm.table[name] = e
		lm.granted(m, txn, name, e)
		return true
	}
	if i := e.holder(txn.id); i >= 0 {
		// Re-entrant acquisition; upgrade S→X only when sole holder.
		if mode == LockX && e.mode == LockS {
			if len(e.holders) > 1 {
				lm.conflict(m)
				return false
			}
			e.mode = LockX
		}
		e.holders[i].count++
		lm.granted(m, txn, name, e)
		return true
	}
	if e.mode == LockS && mode == LockS {
		e.holders = append(e.holders, lockHolder{txn: txn.id, count: 1})
		lm.granted(m, txn, name, e)
		return true
	}
	lm.conflict(m)
	return false
}

// newEntry returns an entry held once by txn in mode, reusing a released
// entry when one is available.
func (lm *lockManager) newEntry(mode LockMode, txn uint64) *lockEntry {
	var e *lockEntry
	if n := len(lm.free); n > 0 {
		e = lm.free[n-1]
		lm.free = lm.free[:n-1]
	} else {
		e = new(lockEntry)
	}
	e.mode = mode
	e.inline[0] = lockHolder{txn: txn, count: 1}
	e.holders = e.inline[:1]
	return e
}

func (lm *lockManager) granted(m *Manager, txn *Txn, name lockName, e *lockEntry) {
	m.seg.lockAcquire.EmitRange(m.rec, 50, 95)
	m.dataWrite(lockBucketAddr(name))
	txn.locks = append(txn.locks, heldLock{name: name, entry: e})
	lm.acquires++
}

func (lm *lockManager) conflict(m *Manager) {
	m.seg.lockAcquire.EmitRange(m.rec, 95, 120)
	lm.conflicts++
}

// releaseAll drops every lock held by txn (commit-time release; strict
// two-phase locking). The first release runs the full lock_release body;
// subsequent ones run only its hot loop — modeling the i-cache-resident
// release walk.
func (lm *lockManager) releaseAll(m *Manager, txn *Txn) {
	for i, l := range txn.locks {
		if i == 0 {
			m.seg.lockRelease.EmitAll(m.rec)
		} else {
			m.seg.lockRelease.EmitRange(m.rec, 0, 12)
		}
		m.dataWrite(lockBucketAddr(l.name))
		e := l.entry
		h := e.holder(txn.id)
		if h < 0 {
			panic(fmt.Sprintf("storage: releasing lock %+v not held by txn %d", l.name, txn.id))
		}
		if e.holders[h].count--; e.holders[h].count == 0 {
			e.holders = slices.Delete(e.holders, h, h+1)
		}
		if len(e.holders) == 0 {
			delete(lm.table, l.name)
			lm.free = append(lm.free, e)
		}
		lm.releases++
	}
	txn.locks = txn.locks[:0]
}

// heldBy reports whether txn holds a lock on (space, key).
func (lm *lockManager) heldBy(txnID uint64, space uint32, key uint64) bool {
	e, ok := lm.table[lockName{space: uint64(space), key: key}]
	if !ok {
		return false
	}
	return e.holder(txnID) >= 0
}
