package storage

import (
	"fmt"

	"addict/internal/trace"
)

// This file implements the five database operations of Section 2.1 with the
// call flows of Figure 1. Each operation is bracketed by OpBegin/OpEnd trace
// markers — the "indicators ... of the entry and exit points" Algorithm 1
// consumes — and emits its routines' instruction blocks plus the data blocks
// it genuinely touches.

// recordLockSpace distinguishes record locks from index-page locks in the
// lock name space.
const pageLockBit = uint32(1) << 31

// IndexProbe looks up key in idx, locks the matching record in S mode, and
// returns a copy of the tuple (Figure 1: find key → lookup → traverse →
// lock). Missing keys return found=false, as the paper describes ("a flag
// indicating the key is not found").
// find_key code ranges (170 blocks):
//
//	[0,50)   API entry, key normalization, index selection
//	[50,170) tuple fetch, validation, and copy-out after the record lock
func (m *Manager) IndexProbe(txn *Txn, tbl *Table, idx *BTree, key uint64) (RID, []byte, bool) {
	m.opBegin(trace.OpIndexProbe)
	defer m.opEnd(trace.OpIndexProbe)

	m.emitRange(&m.seg.findKey, 0, 50)
	m.dataRead(idx.descriptorAddr())
	m.emitAll(&m.seg.lookup)

	rid, found := idx.probe(key, m.traverseStyle())
	if !found {
		return RID{}, nil, false
	}
	if !m.lock.acquire(m, txn, idx.id, key, LockS) {
		// Single-threaded generation cannot conflict; future concurrent use
		// surfaces it as a clean failure.
		return RID{}, nil, false
	}
	// Fetch and copy out the tuple — the post-lock tail of find_key.
	m.emitRange(&m.seg.findKey, 50, 170)
	f := tbl.page(rid.Page)
	rec, ok := f.page.Read(int(rid.Slot))
	if !ok {
		m.bp.unpin(f)
		panic(fmt.Sprintf("storage: index %q rid %v points at dead slot", idx.name, rid))
	}
	m.recordAccess(f.page, int(rid.Slot), len(rec), false)
	out := make([]byte, len(rec))
	copy(out, rec)
	m.bp.unpin(f)
	return rid, out, true
}

// ScanResult is one tuple returned by IndexScan. Rec is a copy of the
// record bytes (the paper's index scan "returns the set of tuples mapping
// to the key values within the given boundaries").
type ScanResult struct {
	Key uint64
	RID RID
	Rec []byte
}

// IndexScan returns all tuples with keys within [lo, hi] (bounds optionally
// exclusive), up to limit (0 = unlimited). Figure 1: initialize cursor
// (descent + positioning, 75% of the footprint) then the short fetch-next
// loop, which pins each tuple's data page (reusing the pin while
// consecutive tuples share a page) and reads the record. Leaf pages are
// S-locked as the cursor crosses them.
//
// fetch_next code ranges (90 blocks):
//
//	[0,20)  per-tuple hot loop
//	[20,40) leaf-boundary / page-switch advance
//	[40,90) cursor finalize / boundary checks
func (m *Manager) IndexScan(txn *Txn, idx *BTree, lo, hi uint64, inclLo, inclHi bool, limit int) []ScanResult {
	m.opBegin(trace.OpIndexScan)
	defer m.opEnd(trace.OpIndexScan)

	m.emitAll(&m.seg.scanAPI)
	m.dataRead(idx.descriptorAddr())
	m.emitAll(&m.seg.initCursor)

	var out []ScanResult
	st := m.traverseStyle()
	lockLeaf := func(pid PageID) {
		m.lock.acquire(m, txn, idx.id|pageLockBit, uint64(pid), LockS)
	}
	var pinned *frame
	first := true
	idx.scanRange(lo, hi, inclLo, inclHi, st,
		lockLeaf,
		func(key uint64, rid RID) bool {
			if first {
				// The cursor's starting leaf is locked on first delivery.
				lockLeaf(rid.Page)
				first = false
			}
			m.emitRange(&m.seg.fetchNext, 0, 20)
			if pinned == nil || pinned.pid != rid.Page {
				if pinned != nil {
					m.bp.unpin(pinned)
				}
				m.emitRange(&m.seg.fetchNext, 20, 40)
				pinned = m.bp.find(m, rid.Page)
			}
			var rec []byte
			if pinned.page != nil {
				if raw, ok := pinned.page.Read(int(rid.Slot)); ok {
					m.recordAccess(pinned.page, int(rid.Slot), 1, false)
					rec = append([]byte(nil), raw...)
				}
			}
			out = append(out, ScanResult{Key: key, RID: rid, Rec: rec})
			return limit == 0 || len(out) < limit
		})
	if pinned != nil {
		m.bp.unpin(pinned)
	}
	m.emitRange(&m.seg.fetchNext, 40, 90)
	return out
}

// UpdateTuple rewrites the record at rid (Figure 1: pin record page →
// update page + log). The caller supplies the lock key (usually the primary
// key) so record locks match probe locks.
func (m *Manager) UpdateTuple(txn *Txn, tbl *Table, rid RID, lockKey uint64, newRec []byte) error {
	m.opBegin(trace.OpUpdateTuple)
	defer m.opEnd(trace.OpUpdateTuple)

	m.emitAll(&m.seg.updateAPI)
	if !m.lock.acquire(m, txn, tbl.id, lockKey, LockX) {
		return fmt.Errorf("storage: lock conflict updating %q key %d", tbl.name, lockKey)
	}

	// pin record page.
	m.emitAll(&m.seg.pinRecord)
	f := tbl.page(rid.Page)
	defer m.bp.unpin(f)
	m.recordAccess(f.page, int(rid.Slot), 1, false)

	// update page.
	m.emitAll(&m.seg.updatePage)
	if !f.page.Update(int(rid.Slot), newRec) {
		return fmt.Errorf("storage: update of %q rid %v does not fit", tbl.name, rid)
	}
	m.recordAccess(f.page, int(rid.Slot), len(newRec), true)
	m.wal.insert(m, txn, logUpdate, len(newRec))
	return nil
}

// InsertTuple appends a record (Figure 1: create record → [allocate page] →
// create index entry → [structural modification]). keys[i] is the key for
// tbl.Index(i); len(keys) may be less than the number of indexes only for
// tables with zero indexes (TPC-B History, TPC-C History).
//
// A duplicate-key error aborts the statement mid-flight (no undo is
// modeled); the caller must treat the transaction as failed. The workloads
// guarantee key uniqueness, so this path never fires during trace
// generation.
func (m *Manager) InsertTuple(txn *Txn, tbl *Table, keys []uint64, rec []byte) (RID, error) {
	m.opBegin(trace.OpInsertTuple)
	defer m.opEnd(trace.OpInsertTuple)

	if len(keys) != len(tbl.indexes) {
		return RID{}, fmt.Errorf("storage: %d keys for %d indexes of %q", len(keys), len(tbl.indexes), tbl.name)
	}
	m.emitAll(&m.seg.insertAPI)
	lockKey := uint64(tbl.rows) // tables without indexes lock the row ordinal
	if len(keys) > 0 {
		lockKey = keys[0]
	}
	if !m.lock.acquire(m, txn, tbl.id, lockKey, LockX) {
		return RID{}, fmt.Errorf("storage: lock conflict inserting into %q", tbl.name)
	}

	// create record: find a page with space (catalog read), falling back to
	// allocate page — the rarely taken path that produces TPC-B's 40%
	// uncommon insert code (Section 2.2.1).
	m.emitAll(&m.seg.createRecord)
	m.dataRead(tbl.catalogAddr())
	f := tbl.page(tbl.cur)
	slot, ok := f.page.Insert(rec)
	if !ok {
		m.bp.unpin(f)
		m.emitAll(&m.seg.allocatePage)
		pid := m.allocPage()
		pg := newPage(pid, tbl.id)
		m.bp.install(m, &frame{pid: pid, page: pg})
		tbl.pages = append(tbl.pages, pid)
		tbl.cur = pid
		m.dataWrite(PageAddr(pid, 0)) // page format/header init
		m.dataWrite(tbl.catalogAddr())
		f = tbl.page(pid)
		slot, ok = f.page.Insert(rec)
		if !ok {
			m.bp.unpin(f)
			return RID{}, fmt.Errorf("storage: record of %d bytes does not fit an empty page", len(rec))
		}
	}
	rid := RID{Page: f.page.ID(), Slot: uint16(slot)}
	m.recordAccess(f.page, slot, len(rec), true)
	m.bp.unpin(f)
	m.wal.insert(m, txn, logInsert, len(rec))

	// create index entry, per index; splits emit the SMO ranges inside
	// insertEntry.
	for i, idx := range tbl.indexes {
		m.emitAll(&m.seg.createIndexEntry)
		m.dataRead(idx.descriptorAddr())
		if !idx.insertEntry(keys[i], rid) {
			return RID{}, fmt.Errorf("storage: duplicate key %d in index %q", keys[i], idx.name)
		}
		m.wal.insert(m, txn, logInsert, 16)
	}
	tbl.rows++
	return rid, nil
}

// DeleteTuple removes the record at rid and its index entries (Section 2.1
// omits delete from Figure 1 "because of its similarity to insert tuple").
func (m *Manager) DeleteTuple(txn *Txn, tbl *Table, rid RID, keys []uint64) error {
	m.opBegin(trace.OpDeleteTuple)
	defer m.opEnd(trace.OpDeleteTuple)

	if len(keys) != len(tbl.indexes) {
		return fmt.Errorf("storage: %d keys for %d indexes of %q", len(keys), len(tbl.indexes), tbl.name)
	}
	m.emitAll(&m.seg.deleteAPI)
	lockKey := uint64(rid.Page)<<16 | uint64(rid.Slot)
	if len(keys) > 0 {
		lockKey = keys[0]
	}
	if !m.lock.acquire(m, txn, tbl.id, lockKey, LockX) {
		return fmt.Errorf("storage: lock conflict deleting from %q", tbl.name)
	}

	// remove record.
	m.emitAll(&m.seg.removeRecord)
	f := tbl.page(rid.Page)
	if !f.page.Delete(int(rid.Slot)) {
		m.bp.unpin(f)
		return fmt.Errorf("storage: delete of dead slot %v in %q", rid, tbl.name)
	}
	m.dataWrite(PageAddr(rid.Page, pageHeaderSize+int(rid.Slot)*slotEntrySize))
	m.bp.unpin(f)
	m.wal.insert(m, txn, logDelete, 16)

	// remove index entries; merges emit the btree_merge ranges inside
	// deleteEntry.
	for i, idx := range tbl.indexes {
		m.emitAll(&m.seg.removeIndexEntry)
		m.dataRead(idx.descriptorAddr())
		if !idx.deleteEntry(keys[i]) {
			return fmt.Errorf("storage: key %d missing from index %q", keys[i], idx.name)
		}
		m.wal.insert(m, txn, logDelete, 16)
	}
	tbl.rows--
	return nil
}
