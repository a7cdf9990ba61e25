package storage

import (
	"fmt"

	"addict/internal/codemap"
	"addict/internal/trace"
)

// PageID identifies a page (data page or index node) in the database.
type PageID uint64

// RID is a record identifier: data page plus slot.
type RID struct {
	Page PageID
	Slot uint16
}

// Address-space plan. Instruction blocks live at codemap.CodeBase
// (0x0040_0000); all data structures live far above so the two never mix.
// Spreading record pages across a sparse page-ID space reproduces the
// paper's "almost no overlap on the data that represent database records"
// (Section 2.2.2) without materializing 100GB, while the fixed metadata,
// lock-table, and log regions reproduce the small common hot set
// ("metadata information, lock manager, buffer pool structures, and index
// root pages are commonly accessed").
const (
	// PageSize is the size of data pages and index nodes.
	PageSize = 8192

	// MetaBase holds catalog entries and index descriptors: one 64-byte
	// block per table or index, read by every operation that touches it.
	MetaBase uint64 = 0x1000_0000

	// LockBase holds the lock-table buckets (one block each) plus a header
	// block that every acquisition reads.
	LockBase uint64 = 0x2000_0000
	// LockBuckets is the number of lock-table hash buckets.
	LockBuckets = 4096

	// LogBase is the start of the circular log buffer.
	LogBase uint64 = 0x3000_0000
	// LogBufBytes is the log buffer size; inserts wrap around it.
	LogBufBytes = 1 << 20

	// BufDirBase holds the buffer-pool directory buckets (one block each).
	BufDirBase uint64 = 0x4000_0000
	// BufDirBuckets is the number of buffer-pool hash buckets.
	BufDirBuckets = 8192

	// DataBase is the start of page storage; page p occupies
	// [DataBase + p*PageSize, DataBase + (p+1)*PageSize).
	DataBase uint64 = 0x1_0000_0000
)

// PageAddr returns the memory address of byte `off` within page pid.
func PageAddr(pid PageID, off int) uint64 {
	return DataBase + uint64(pid)*PageSize + uint64(off)
}

// Manager is the storage manager instance: it owns the buffer pool, lock
// manager, log, catalog, and the trace buffer that instrumented routines
// record into.
//
// With no buffer installed (population and warm-up, which the paper leaves
// untraced) the manager is untraced: instrumented routines make every
// state change but compute no event. The emission helpers return before
// any address is computed, searchNode runs a plain binary search, the log
// skips its buffer-block writes, and a load transaction's lock grants are
// counted instead of kept by name.
type Manager struct {
	rec  *trace.Buffer // nil while untraced
	lay  *codemap.Layout
	bp   *bufferPool
	lock *lockManager
	wal  *logManager

	tables   []*Table
	indexes  []*BTree
	byName   map[string]*Table
	idxNames map[string]*BTree

	nextPage PageID
	nextTxn  uint64

	// seg caches the codemap segments on the hot emission path, and
	// styles the B+tree descent styles over them.
	seg    segments
	styles descentStyles
}

type segments struct {
	txnBegin, txnCommit                       codemap.Segment
	lockAcquire, lockRelease, latch           codemap.Segment
	bufFind, logInsert                        codemap.Segment
	findKey, lookup, traverse                 codemap.Segment
	scanAPI, initCursor, fetchNext            codemap.Segment
	updateAPI, pinRecord, updatePage          codemap.Segment
	insertAPI, createRecord, allocatePage     codemap.Segment
	createIndexEntry, indexDescent, btreeSMO  codemap.Segment
	deleteAPI, removeRecord, removeIndexEntry codemap.Segment
	btreeMerge                                codemap.Segment
}

// NewManager creates an untraced storage manager using the given code
// layout.
func NewManager(lay *codemap.Layout) *Manager {
	m := &Manager{
		lay:      lay,
		bp:       &bufferPool{},
		lock:     newLockManager(),
		wal:      newLogManager(),
		byName:   make(map[string]*Table),
		idxNames: make(map[string]*BTree),
		nextPage: 1, // page 0 reserved
	}
	m.seg = segments{
		txnBegin:         lay.Routine(codemap.RTxnBegin),
		txnCommit:        lay.Routine(codemap.RTxnCommit),
		lockAcquire:      lay.Routine(codemap.RLockAcquire),
		lockRelease:      lay.Routine(codemap.RLockRelease),
		latch:            lay.Routine(codemap.RLatch),
		bufFind:          lay.Routine(codemap.RBufFind),
		logInsert:        lay.Routine(codemap.RLogInsert),
		findKey:          lay.Routine(codemap.RFindKey),
		lookup:           lay.Routine(codemap.RLookup),
		traverse:         lay.Routine(codemap.RTraverse),
		scanAPI:          lay.Routine(codemap.RScanAPI),
		initCursor:       lay.Routine(codemap.RInitCursor),
		fetchNext:        lay.Routine(codemap.RFetchNext),
		updateAPI:        lay.Routine(codemap.RUpdateAPI),
		pinRecord:        lay.Routine(codemap.RPinRecord),
		updatePage:       lay.Routine(codemap.RUpdatePage),
		insertAPI:        lay.Routine(codemap.RInsertAPI),
		createRecord:     lay.Routine(codemap.RCreateRecord),
		allocatePage:     lay.Routine(codemap.RAllocatePage),
		createIndexEntry: lay.Routine(codemap.RCreateIndexEntry),
		indexDescent:     lay.Routine(codemap.RIndexDescent),
		btreeSMO:         lay.Routine(codemap.RBtreeSMO),
		deleteAPI:        lay.Routine(codemap.RDeleteAPI),
		removeRecord:     lay.Routine(codemap.RRemoveRecord),
		removeIndexEntry: lay.Routine(codemap.RRemoveIndexEntry),
		btreeMerge:       lay.Routine(codemap.RBtreeMerge),
	}
	m.styles = newDescentStyles(&m.seg)
	return m
}

// SetRecorder installs the trace buffer the manager records into; nil
// makes it untraced. Population runs untraced, then the workload driver
// installs a buffer ("after a warm-up period", Section 4.1).
func (m *Manager) SetRecorder(rec *trace.Buffer) { m.rec = rec }

// Recorder returns the installed trace buffer, nil while untraced.
func (m *Manager) Recorder() *trace.Buffer { return m.rec }

// Layout returns the code layout the manager emits from.
func (m *Manager) Layout() *codemap.Layout { return m.lay }

// allocPage reserves a fresh page ID.
func (m *Manager) allocPage() PageID {
	p := m.nextPage
	m.nextPage++
	return p
}

// PagesAllocated returns the number of pages ever allocated.
func (m *Manager) PagesAllocated() uint64 { return uint64(m.nextPage - 1) }

// The emission helpers below are the only way instrumented routines reach
// the trace buffer. Each returns at once when the manager is untraced; the
// code-range helpers still run the codemap bounds check, so a bad range
// panics whether or not it is recorded.

// emitAll records a straight-line execution of the whole routine s.
func (m *Manager) emitAll(s *codemap.Segment) {
	if m.rec == nil {
		return
	}
	s.EmitAll(m.rec)
}

// emitRange records execution of blocks [from, to) of s.
func (m *Manager) emitRange(s *codemap.Segment, from, to int) {
	if m.rec == nil {
		s.CheckRange(from, to)
		return
	}
	s.EmitRange(m.rec, from, to)
}

// emitLoop records `times` iterations over blocks [from, to) of s.
func (m *Manager) emitLoop(s *codemap.Segment, from, to, times int) {
	if m.rec == nil {
		if times > 0 {
			s.CheckRange(from, to)
		}
		return
	}
	s.EmitLoop(m.rec, from, to, times)
}

// opBegin and opEnd bracket a database operation.
func (m *Manager) opBegin(op trace.OpType) {
	if m.rec != nil {
		m.rec.OpBegin(op)
	}
}

func (m *Manager) opEnd(op trace.OpType) {
	if m.rec != nil {
		m.rec.OpEnd(op)
	}
}

// dataRead and dataWrite record a read or write of the data block at
// addr.
func (m *Manager) dataRead(addr uint64) {
	if m.rec != nil {
		m.rec.Data(addr, false)
	}
}

func (m *Manager) dataWrite(addr uint64) {
	if m.rec != nil {
		m.rec.Data(addr, true)
	}
}

// recordAccess records one access per 64-byte step of the first n bytes
// of the record in slot of p (n = 1 touches only its first block).
func (m *Manager) recordAccess(p *Page, slot, n int, write bool) {
	if m.rec == nil {
		return
	}
	addr := p.addrOfSlot(slot)
	for b := uint64(0); b < uint64(n); b += 64 {
		m.rec.Data(addr+b, write)
	}
}

// Tables returns the catalog in creation order.
func (m *Manager) Tables() []*Table { return m.tables }

// Table returns a table by name.
func (m *Manager) Table(name string) (*Table, bool) {
	t, ok := m.byName[name]
	return t, ok
}

// MustTable returns a table by name, panicking if missing (used by workload
// definitions, where absence is a programming error).
func (m *Manager) MustTable(name string) *Table {
	t, ok := m.byName[name]
	if !ok {
		panic(fmt.Sprintf("storage: unknown table %q", name))
	}
	return t
}

// Index returns an index by name.
func (m *Manager) Index(name string) (*BTree, bool) {
	i, ok := m.idxNames[name]
	return i, ok
}

// LogBytes returns the number of log bytes written so far.
func (m *Manager) LogBytes() uint64 { return m.wal.offset }

// LockStats exposes lock-manager activity counters for tests and reports.
func (m *Manager) LockStats() (acquires, releases, conflicts uint64) {
	return m.lock.acquires, m.lock.releases, m.lock.conflicts
}
