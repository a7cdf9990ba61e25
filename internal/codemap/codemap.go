package codemap

import (
	"fmt"
	"sort"

	"addict/internal/trace"
)

// CodeBase is the address of the first instruction block. Data addresses
// (package storage) live far above it, so instruction and data blocks never
// collide.
const CodeBase uint64 = 0x0040_0000

// Routine names. The set mirrors the significant code parts of Figure 1 plus
// the shared lower-level services every operation uses (buffer pool, lock
// manager, latching, logging) and the transaction glue.
const (
	RTxnBegin  = "txn_begin"
	RTxnCommit = "txn_commit" // lock release walk + commit log record

	// Shared services.
	RLockAcquire = "lock_acquire" // no-migrate (Section 3.1.3)
	RLockRelease = "lock_release" // no-migrate
	RLatch       = "latch"        // no-migrate
	RBufFind     = "buf_find"     // buffer-pool hash probe + pin
	RLogInsert   = "log_insert"   // no-migrate

	// Index probe (Figure 1 left).
	RFindKey  = "find_key"       // storage manager API entry
	RLookup   = "btree_lookup"   // per-index lookup routine
	RTraverse = "btree_traverse" // top-to-bottom page descent

	// Index scan.
	RScanAPI    = "scan_api"
	RInitCursor = "init_cursor"
	RFetchNext  = "fetch_next"

	// Update tuple.
	RUpdateAPI  = "update_api"
	RPinRecord  = "pin_record_page"
	RUpdatePage = "update_page"

	// Insert tuple.
	RInsertAPI        = "insert_api"
	RCreateRecord     = "create_record"
	RAllocatePage     = "allocate_page" // dashed path: only when no page has space
	RCreateIndexEntry = "create_index_entry"
	RIndexDescent     = "index_descent" // insert-optimized descent
	RBtreeSMO         = "btree_smo"     // dashed path: splits / new roots

	// Delete tuple (Section 2.1 notes it mirrors insert; included for
	// completeness).
	RDeleteAPI        = "delete_api"
	RRemoveRecord     = "remove_record"
	RRemoveIndexEntry = "remove_index_entry"
	RBtreeMerge       = "btree_merge" // dashed path: underflow merges
)

// Segment is the code range owned by one routine.
type Segment struct {
	// Name is the routine name (one of the R… constants).
	Name string
	// Base is the address of the routine's first block.
	Base uint64
	// NBlocks is the routine's size in 64-byte blocks.
	NBlocks int
	// NoMigrate marks routines inside which ADDICT must not place migration
	// points (short critical sections, lock acquisition/release —
	// Section 3.1.3).
	NoMigrate bool
}

// Addr returns the address of the i-th block of the segment. i must be in
// [0, NBlocks).
func (s Segment) Addr(i int) uint64 {
	if i < 0 || i >= s.NBlocks {
		panic(fmt.Sprintf("codemap: block %d out of range for %s (%d blocks)", i, s.Name, s.NBlocks))
	}
	return s.Base + uint64(i)*trace.BlockSize
}

// End returns the first address past the segment.
func (s Segment) End() uint64 { return s.Base + uint64(s.NBlocks)*trace.BlockSize }

// Contains reports whether addr falls inside the segment.
func (s Segment) Contains(addr uint64) bool { return addr >= s.Base && addr < s.End() }

// EmitAll records a straight-line execution of the whole routine body.
func (s Segment) EmitAll(rec trace.Recorder) { s.EmitRange(rec, 0, s.NBlocks) }

// EmitRange records execution of blocks [from, to) of the routine.
func (s Segment) EmitRange(rec trace.Recorder, from, to int) {
	if from < 0 || to > s.NBlocks || from > to {
		panic(fmt.Sprintf("codemap: range [%d,%d) out of bounds for %s (%d blocks)", from, to, s.Name, s.NBlocks))
	}
	rec.InstrRange(s.Base+uint64(from)*trace.BlockSize, to-from)
}

// EmitLoop records `times` iterations over blocks [from, to) — the emission
// form of a hot inner loop (B-tree binary search, scan fetch loop, lock hash
// walk). Loop blocks are what give common instructions their high
// within-instance reuse counts (Figure 3).
func (s Segment) EmitLoop(rec trace.Recorder, from, to, times int) {
	for t := 0; t < times; t++ {
		s.EmitRange(rec, from, to)
	}
}

// sizes is the Figure 1 calibration. See DESIGN.md Section 5; the derivation
// of the targets is spelled out in layout_test.go, and the Fig 1 experiment
// (internal/exp) prints the resulting measured percentages.
var sizes = []struct {
	name      string
	blocks    int
	noMigrate bool
}{
	{RTxnBegin, 24, false},
	{RTxnCommit, 90, false},
	{RLockAcquire, 120, true},
	{RLockRelease, 40, true},
	{RLatch, 10, true},
	{RBufFind, 50, false},
	{RLogInsert, 120, true},
	{RFindKey, 170, false},
	{RLookup, 125, false},
	{RTraverse, 200, false},
	{RScanAPI, 70, false},
	{RInitCursor, 150, false},
	{RFetchNext, 90, false},
	{RUpdateAPI, 50, false},
	{RPinRecord, 190, false},
	{RUpdatePage, 140, false},
	{RInsertAPI, 80, false},
	{RCreateRecord, 130, false},
	{RAllocatePage, 270, false},
	{RCreateIndexEntry, 60, false},
	{RIndexDescent, 150, false},
	{RBtreeSMO, 700, false},
	{RDeleteAPI, 70, false},
	{RRemoveRecord, 120, false},
	{RRemoveIndexEntry, 80, false},
	{RBtreeMerge, 300, false},
}

// Layout maps routine names to code segments. One immutable Layout is shared
// by trace generation, profiling, and the experiments.
type Layout struct {
	segs   []Segment
	byName map[string]int
}

// NewLayout builds the standard storage-manager code layout.
func NewLayout() *Layout {
	l := &Layout{byName: make(map[string]int, len(sizes))}
	addr := CodeBase
	for _, s := range sizes {
		if _, dup := l.byName[s.name]; dup {
			panic("codemap: duplicate routine " + s.name)
		}
		l.byName[s.name] = len(l.segs)
		l.segs = append(l.segs, Segment{Name: s.name, Base: addr, NBlocks: s.blocks, NoMigrate: s.noMigrate})
		addr += uint64(s.blocks) * trace.BlockSize
	}
	return l
}

// Routine returns the segment for a routine name; it panics on unknown names
// (a programming error, not an input error).
func (l *Layout) Routine(name string) Segment {
	i, ok := l.byName[name]
	if !ok {
		panic("codemap: unknown routine " + name)
	}
	return l.segs[i]
}

// Routines returns all segments in address order.
func (l *Layout) Routines() []Segment {
	out := make([]Segment, len(l.segs))
	copy(out, l.segs)
	return out
}

// TotalBlocks returns the size of the whole layout in blocks.
func (l *Layout) TotalBlocks() int {
	n := 0
	for _, s := range l.segs {
		n += s.NBlocks
	}
	return n
}

// TotalBytes returns the size of the whole layout in bytes — the simulated
// storage manager's instruction footprint.
func (l *Layout) TotalBytes() int { return l.TotalBlocks() * trace.BlockSize }

// Find returns the segment containing addr, if any. Segments are contiguous
// and sorted, so this is a binary search.
func (l *Layout) Find(addr uint64) (Segment, bool) {
	i := sort.Search(len(l.segs), func(i int) bool { return l.segs[i].End() > addr })
	if i < len(l.segs) && l.segs[i].Contains(addr) {
		return l.segs[i], true
	}
	return Segment{}, false
}

// NoMigrate reports whether addr falls inside a routine where migration
// points must not be placed (Section 3.1.3: "migrating within short critical
// sections or lock acquisitions/releases would increase the duration of these
// routines").
func (l *Layout) NoMigrate(addr uint64) bool {
	s, ok := l.Find(addr)
	return ok && s.NoMigrate
}
