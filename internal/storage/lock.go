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
// its table entry, so commit-time release needs no table lookup. A load
// transaction's grants have no entry (nil).
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
//
// Load transactions (Manager.BeginLoad) bypass the table. A load starts
// only when no lock is held and no other load is live, and while it is
// live any other transaction's request panics, so every one of its
// requests would be granted: a first acquisition, or a re-entrant one by
// the only holder. acquire and releaseAll therefore emit and count a load
// transaction's grants and releases exactly as the table path would, but
// create and delete no entries. A load grant made while the manager is
// untraced keeps no name: it is only counted, and released by count
// without an event, so it costs no append during population.
type lockManager struct {
	table map[lockName]*lockEntry
	free  []*lockEntry // released entries, reused by later acquisitions
	load  *Txn         // the live load transaction, if any

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

// bucketAccess records a read or write of n's lock-table bucket.
func (m *Manager) bucketAccess(n lockName, write bool) {
	if m.rec != nil {
		m.rec.Data(lockBucketAddr(n), write)
	}
}

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
	if lm.load != nil && lm.load != txn {
		panic(fmt.Sprintf("storage: txn %d requested a lock during load txn %d", txn.id, lm.load.id))
	}
	name := lockName{space: uint64(space), key: key}
	m.emitRange(&m.seg.lockAcquire, 0, 30)
	m.dataRead(lockHeaderAddr())
	m.emitLoop(&m.seg.lockAcquire, 30, 50, 1)
	m.bucketAccess(name, false)

	if lm.load != nil {
		lm.granted(m, txn, name, nil)
		return true
	}
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
	m.emitRange(&m.seg.lockAcquire, 50, 95)
	m.bucketAccess(name, true)
	if e == nil && m.rec == nil {
		txn.counted++
	} else {
		txn.locks = append(txn.locks, heldLock{name: name, entry: e})
	}
	lm.acquires++
}

func (lm *lockManager) conflict(m *Manager) {
	m.emitRange(&m.seg.lockAcquire, 95, 120)
	lm.conflicts++
}

// releaseAll drops every lock held by txn (commit-time release; strict
// two-phase locking). The first release runs the full lock_release body;
// subsequent ones run only its hot loop — modeling the i-cache-resident
// release walk. A load's counted grants are released by count alone.
func (lm *lockManager) releaseAll(m *Manager, txn *Txn) {
	lm.releases += txn.counted
	txn.counted = 0
	for i, l := range txn.locks {
		if i == 0 {
			m.emitAll(&m.seg.lockRelease)
		} else {
			m.emitRange(&m.seg.lockRelease, 0, 12)
		}
		m.bucketAccess(l.name, true)
		lm.releases++
		e := l.entry
		if e == nil { // load transaction: no table entry
			continue
		}
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
	}
	txn.locks = txn.locks[:0]
	if lm.load == txn {
		lm.load = nil
	}
}

// heldBy reports whether txn holds a lock on (space, key) in the lock
// table, which a load transaction's locks never enter.
func (lm *lockManager) heldBy(txnID uint64, space uint32, key uint64) bool {
	e, ok := lm.table[lockName{space: uint64(space), key: key}]
	if !ok {
		return false
	}
	return e.holder(txnID) >= 0
}
