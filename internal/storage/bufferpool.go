package storage

import "fmt"

// bufferPool keeps page frames resident. Like the evaluated configuration
// ("the buffer-pool is configured to keep the whole database in memory",
// Section 4.1), it never evicts: every allocated page stays resident until
// it is dropped.
//
// The pool is also where the paper's common-data effect comes from: the
// directory buckets (fixed addresses at BufDirBase) and the index root
// frames are touched by every transaction, while record-page frames are
// spread across the sparse data address space.
//
// Resident frames sit in a slice indexed by PageID: allocPage hands out
// dense IDs from 1, so the slice has no holes beyond dropped pages.
type bufferPool struct {
	frames []*frame // resident frames by PageID; nil = not resident
	n      int      // resident frames

	hits, misses uint64
}

// frame holds either a slotted data page or a B+tree node.
type frame struct {
	pid  PageID
	page *Page  // non-nil for data pages
	node *bnode // non-nil for index nodes
	pins int
}

// dirBucketAddr returns the directory-bucket block read by every hash
// probe for pid.
func dirBucketAddr(pid PageID) uint64 {
	h := uint64(pid) * 0x9e3779b97f4a7c15
	return BufDirBase + (h%BufDirBuckets)*64
}

// dirBucketRead records the directory-bucket read of a probe for pid.
func (m *Manager) dirBucketRead(pid PageID) {
	if m.rec != nil {
		m.rec.Data(dirBucketAddr(pid), false)
	}
}

// find runs the instrumented buffer-pool hash probe: buf_find's hash walk
// and hit path, one directory-bucket read, and a latch on the frame. The
// returned frame is pinned; callers unpin when done.
//
// Code-range map for buf_find (50 blocks):
//
//	[0,30)  hash + bucket walk
//	[30,40) hit path (pin)
//	[40,50) miss path (frame allocation, emitted by installFrame)
func (bp *bufferPool) find(m *Manager, pid PageID) *frame {
	m.emitRange(&m.seg.bufFind, 0, 30)
	m.dirBucketRead(pid)
	f := bp.lookup(pid)
	if f == nil {
		panic(fmt.Sprintf("storage: page %d does not exist", pid))
	}
	m.emitRange(&m.seg.bufFind, 30, 40)
	bp.hits++
	m.emitAll(&m.seg.latch)
	m.dataRead(PageAddr(pid, 0)) // frame/page header block
	f.pins++
	return f
}

// unpin releases one pin.
func (bp *bufferPool) unpin(f *frame) {
	if f.pins <= 0 {
		panic(fmt.Sprintf("storage: unpin of unpinned page %d", f.pid))
	}
	f.pins--
}

// install registers a freshly allocated frame.
func (bp *bufferPool) install(m *Manager, f *frame) {
	if bp.lookup(f.pid) != nil {
		panic(fmt.Sprintf("storage: page %d installed twice", f.pid))
	}
	// The miss path of buf_find: allocation happens under the same
	// hash-bucket latch.
	m.emitRange(&m.seg.bufFind, 40, 50)
	m.dirBucketRead(f.pid)
	if need := int(f.pid) + 1 - len(bp.frames); need > 0 {
		bp.frames = append(bp.frames, make([]*frame, need)...)
	}
	bp.frames[f.pid] = f
	bp.n++
	bp.misses++
}

// lookup returns the resident frame of pid, or nil.
func (bp *bufferPool) lookup(pid PageID) *frame {
	if uint64(pid) < uint64(len(bp.frames)) {
		return bp.frames[pid]
	}
	return nil
}

// drop removes pid from the resident set.
func (bp *bufferPool) drop(pid PageID) {
	if bp.lookup(pid) != nil {
		bp.frames[pid] = nil
		bp.n--
	}
}

// resident returns the number of frames in the pool.
func (bp *bufferPool) resident() int { return bp.n }
