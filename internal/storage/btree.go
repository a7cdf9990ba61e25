package storage

import (
	"fmt"
	"slices"
	"sort"

	"addict/internal/codemap"
)

// BTree is a B+tree index: internal nodes route by key, leaves hold
// (key, RID) entries and are chained for range scans. Nodes live in
// buffer-pool frames so every descent level performs an instrumented
// buffer-pool probe and node-block reads, exactly like the page-at-a-time
// descent of Figure 1's traverse routine.
type BTree struct {
	m      *Manager
	name   string
	id     uint32
	root   PageID
	fanout int // max keys per node; an insert overflowing this splits
	height int
	size   int

	splits, merges, rootSplits uint64

	// pathBuf and frameBuf back the slices descend returns. Every caller
	// is done with one descent's path before the next descent of the same
	// tree starts, so the buffers are reused instead of reallocated.
	pathBuf  []*bnode
	frameBuf []*frame
}

// bnode is an index node. Key slots are addressed at byte offset
// 64 + 16*i within the node's page for data-trace emission.
type bnode struct {
	pid  PageID
	leaf bool
	keys []uint64
	vals []RID    // leaves: parallel to keys
	kids []PageID // internal: len(keys)+1 children
	next PageID   // leaf chain; 0 terminates
}

const (
	// defaultFanout is the max keys per node: 8KB page / 16B entries,
	// leaving headroom for headers, rounded to a power of two.
	defaultFanout = 128
	// minFill is the underflow bound for deletes (merge below this).
	minFill = defaultFanout / 4
)

func keySlotAddr(pid PageID, i int) uint64 { return PageAddr(pid, 64+16*i) }

// descentStyle selects the code segment and block ranges emitted while
// walking the tree. Probes and scans use the traverse routine of Figure 1;
// inserts and deletes use the leaner insert-optimized descent. A manager
// builds both once (newDescentStyles) and descents share them by pointer.
type descentStyle struct {
	seg        *codemap.Segment
	prologue   [2]int // per level
	searchBase int    // per binary-search step s with outcome b: searchBase+2s+b
	child      [2]int // per internal level
	leafFound  [2]int
	leafMiss   [2]int
}

// descentStyles are a manager's two descent styles.
type descentStyles struct {
	traverse, insert descentStyle
}

func newDescentStyles(seg *segments) descentStyles {
	return descentStyles{
		traverse: descentStyle{
			seg:        &seg.traverse,
			prologue:   [2]int{0, 60},
			searchBase: 60,
			child:      [2]int{90, 110},
			leafFound:  [2]int{110, 190},
			leafMiss:   [2]int{190, 200},
		},
		insert: descentStyle{
			seg:        &seg.indexDescent,
			prologue:   [2]int{0, 30},
			searchBase: 30,
			child:      [2]int{50, 70},
			leafFound:  [2]int{70, 110},
			leafMiss:   [2]int{110, 150},
		},
	}
}

func (m *Manager) traverseStyle() *descentStyle { return &m.styles.traverse }

func (m *Manager) descentStyleInsert() *descentStyle { return &m.styles.insert }

// newNode allocates a node page and installs its frame.
func (t *BTree) newNode(leaf bool) *bnode {
	n := &bnode{pid: t.m.allocPage(), leaf: leaf}
	t.m.bp.install(t.m, &frame{pid: n.pid, node: n})
	return n
}

// newBTree is called by Manager.CreateIndex.
func newBTree(m *Manager, name string, id uint32) *BTree {
	t := &BTree{m: m, name: name, id: id, fanout: defaultFanout, height: 1}
	root := t.newNode(true)
	t.root = root.pid
	return t
}

// Name returns the index name.
func (t *BTree) Name() string { return t.name }

// ID returns the index's lock-space identifier.
func (t *BTree) ID() uint32 { return t.id }

// Size returns the number of entries.
func (t *BTree) Size() int { return t.size }

// Height returns the number of levels (1 = a lone leaf).
func (t *BTree) Height() int { return t.height }

// Splits returns (leaf+internal splits, root splits, merges) — the SMO
// counters behind Figure 2's rare insert paths.
func (t *BTree) Splits() (splits, rootSplits, merges uint64) {
	return t.splits, t.rootSplits, t.merges
}

// descriptorAddr is the index-descriptor metadata block, read at the start
// of every operation touching the index (a commonly shared data block).
func (t *BTree) descriptorAddr() uint64 { return MetaBase + 0x10_0000 + uint64(t.id)*64 }

// searchNode runs an instrumented binary search for key inside n, emitting
// one search block per comparison step (which blocks depends on the
// outcomes, so different keys exercise different subsets — the organic
// source of the paper's mid-frequency instruction blocks) plus a read of
// the probed key slot. It returns the first index i with keys[i] >= key,
// and whether keys[i] == key. An untraced manager runs the same search
// without the emission.
func (t *BTree) searchNode(n *bnode, key uint64, st *descentStyle) (int, bool) {
	m := t.m
	if m.rec == nil {
		return slices.BinarySearch(n.keys, key)
	}
	lo, hi := 0, len(n.keys)
	step := 0
	for lo < hi {
		mid := (lo + hi) / 2
		m.dataRead(keySlotAddr(n.pid, mid))
		outcome := 0
		if n.keys[mid] < key {
			outcome = 1
			lo = mid + 1
		} else {
			hi = mid
		}
		b := st.searchBase + 2*step + outcome
		m.rec.Instr(st.seg.Addr(b % st.seg.NBlocks))
		if step < 7 { // cap the distinct search blocks at 16
			step++
		}
	}
	found := lo < len(n.keys) && n.keys[lo] == key
	return lo, found
}

// childIndex returns which child to descend into for key:
// kids[i] holds keys k with keys[i-1] <= k < keys[i].
func childIndex(keys []uint64, key uint64) int {
	return sort.Search(len(keys), func(i int) bool { return keys[i] > key })
}

// descend walks from the root to the leaf for key, pinning every node on
// the path. Callers must unpin via releasePath. The instrumented per-level
// work is: style prologue, buffer-pool find, binary search, child select.
// The returned slices alias the tree's descent buffers and stay valid only
// until the next descent.
func (t *BTree) descend(key uint64, st *descentStyle) (path []*bnode, frames []*frame) {
	m := t.m
	pid := t.root
	path, frames = t.pathBuf[:0], t.frameBuf[:0]
	for {
		m.emitRange(st.seg, st.prologue[0], st.prologue[1])
		f := m.bp.find(m, pid)
		n := f.node
		if n == nil {
			panic(fmt.Sprintf("storage: page %d is not an index node", pid))
		}
		path = append(path, n)
		frames = append(frames, f)
		if n.leaf {
			t.pathBuf, t.frameBuf = path, frames
			return path, frames
		}
		// Internal search: find the child. The binary-search emission uses
		// the same searchNode machinery.
		i, _ := t.searchNode(n, key, st)
		// Convert lower-bound position to child index: keys[i] == key means
		// key belongs to the right child of separator i.
		if i < len(n.keys) && n.keys[i] == key {
			i++
		}
		m.emitRange(st.seg, st.child[0], st.child[1])
		pid = n.kids[i]
	}
}

func (t *BTree) releasePath(frames []*frame) {
	for _, f := range frames {
		t.m.bp.unpin(f)
	}
}

// probe finds key and returns its RID. Emission: leaf found/miss ranges.
func (t *BTree) probe(key uint64, st *descentStyle) (RID, bool) {
	path, frames := t.descend(key, st)
	defer t.releasePath(frames)
	leaf := path[len(path)-1]
	i, found := t.searchNode(leaf, key, st)
	if found {
		t.m.emitRange(st.seg, st.leafFound[0], st.leafFound[1])
		t.m.dataRead(keySlotAddr(leaf.pid, i))
		return leaf.vals[i], true
	}
	t.m.emitRange(st.seg, st.leafMiss[0], st.leafMiss[1])
	return RID{}, false
}

// insertEntry adds (key, rid); duplicate keys are rejected (all indexes in
// the reproduction use composite-encoded unique keys). Splits — the
// structural modifications forming 65% of create-index-entry's footprint in
// Figure 1 — propagate up the pinned path and emit the btree_smo ranges.
func (t *BTree) insertEntry(key uint64, rid RID) bool {
	m := t.m
	st := m.descentStyleInsert()
	path, frames := t.descend(key, st)
	defer t.releasePath(frames)
	leaf := path[len(path)-1]
	i, found := t.searchNode(leaf, key, st)
	if found {
		m.emitRange(st.seg, st.leafMiss[0], st.leafMiss[1])
		return false
	}
	m.emitRange(st.seg, st.leafFound[0], st.leafFound[1])
	leaf.keys = insertU64(leaf.keys, i, key)
	leaf.vals = insertRID(leaf.vals, i, rid)
	m.dataWrite(keySlotAddr(leaf.pid, i))
	t.size++
	if len(leaf.keys) > t.fanout {
		t.splitPath(path)
	}
	return true
}

// splitPath performs the structural modification for an overflowing leaf,
// walking up the (pinned) path. btree_smo code ranges (700 blocks):
//
//	[0,250)   leaf split
//	[250,450) parent separator insert (per propagated level)
//	[450,700) root split / new root creation
func (t *BTree) splitPath(path []*bnode) {
	m := t.m
	smo := &m.seg.btreeSMO
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if len(n.keys) <= t.fanout {
			break
		}
		var right *bnode
		var sep uint64
		mid := len(n.keys) / 2
		if n.leaf {
			m.emitRange(smo, 0, 250)
			right = t.newNode(true)
			sep = n.keys[mid]
			right.keys = append(right.keys, n.keys[mid:]...)
			right.vals = append(right.vals, n.vals[mid:]...)
			n.keys = truncU64(n.keys, mid)
			n.vals = truncRID(n.vals, mid)
			right.next = n.next
			n.next = right.pid
		} else {
			m.emitRange(smo, 250, 450)
			right = t.newNode(false)
			sep = n.keys[mid]
			right.keys = append(right.keys, n.keys[mid+1:]...)
			right.kids = append(right.kids, n.kids[mid+1:]...)
			n.keys = truncU64(n.keys, mid)
			n.kids = truncPID(n.kids, mid+1)
		}
		m.dataWrite(keySlotAddr(n.pid, 0))
		m.dataWrite(keySlotAddr(right.pid, 0))
		t.splits++

		if i == 0 {
			// Root split: the tree grows.
			m.emitRange(smo, 450, 700)
			newRoot := t.newNode(false)
			newRoot.keys = append(newRoot.keys, sep)
			newRoot.kids = append(newRoot.kids, n.pid, right.pid)
			t.root = newRoot.pid
			t.height++
			t.rootSplits++
			m.dataWrite(keySlotAddr(newRoot.pid, 0))
			return
		}
		parent := path[i-1]
		pos := childIndex(parent.keys, sep)
		parent.keys = insertU64(parent.keys, pos, sep)
		parent.kids = insertPID(parent.kids, pos+1, right.pid)
		m.dataWrite(keySlotAddr(parent.pid, pos))
	}
}

// deleteEntry removes key, rebalancing on underflow via borrow or merge
// (btree_merge code). Returns false if the key is absent.
func (t *BTree) deleteEntry(key uint64) bool {
	m := t.m
	st := m.descentStyleInsert()
	path, frames := t.descend(key, st)
	defer t.releasePath(frames)
	leaf := path[len(path)-1]
	i, found := t.searchNode(leaf, key, st)
	if !found {
		m.emitRange(st.seg, st.leafMiss[0], st.leafMiss[1])
		return false
	}
	m.emitRange(st.seg, st.leafFound[0], st.leafFound[1])
	leaf.keys = removeU64(leaf.keys, i)
	leaf.vals = removeRID(leaf.vals, i)
	m.dataWrite(keySlotAddr(leaf.pid, i))
	t.size--
	t.rebalancePath(path)
	return true
}

// rebalancePath fixes underflows from the leaf upward. btree_merge code
// ranges (300 blocks):
//
//	[0,120)   borrow from sibling
//	[120,240) merge with sibling
//	[240,300) root collapse
func (t *BTree) rebalancePath(path []*bnode) {
	m := t.m
	mg := &m.seg.btreeMerge
	for i := len(path) - 1; i >= 1; i-- {
		n := path[i]
		if len(n.keys) >= minFill {
			return
		}
		parent := path[i-1]
		pos := -1
		for k, kid := range parent.kids {
			if kid == n.pid {
				pos = k
				break
			}
		}
		if pos < 0 {
			panic("storage: node not found in parent during rebalance")
		}
		var left, right *bnode
		if pos > 0 {
			left = t.node(parent.kids[pos-1])
		}
		if pos < len(parent.kids)-1 {
			right = t.node(parent.kids[pos+1])
		}
		switch {
		case left != nil && len(left.keys) > minFill:
			m.emitRange(mg, 0, 120)
			t.borrowFromLeft(parent, pos, left, n)
		case right != nil && len(right.keys) > minFill:
			m.emitRange(mg, 0, 120)
			t.borrowFromRight(parent, pos, n, right)
		case left != nil:
			m.emitRange(mg, 120, 240)
			t.mergeNodes(parent, pos-1, left, n)
		case right != nil:
			m.emitRange(mg, 120, 240)
			t.mergeNodes(parent, pos, n, right)
		default:
			return // root leaf; nothing to do
		}
		t.merges++
	}
	// Root collapse: an internal root left with a single child shrinks the
	// tree.
	root := path[0]
	if !root.leaf && len(root.keys) == 0 {
		m.emitRange(mg, 240, 300)
		t.root = root.kids[0]
		t.height--
	}
}

func (t *BTree) borrowFromLeft(parent *bnode, pos int, left, n *bnode) {
	last := len(left.keys) - 1
	if n.leaf {
		n.keys = insertU64(n.keys, 0, left.keys[last])
		n.vals = insertRID(n.vals, 0, left.vals[last])
		left.keys = truncU64(left.keys, last)
		left.vals = truncRID(left.vals, last)
		parent.keys[pos-1] = n.keys[0]
	} else {
		n.keys = insertU64(n.keys, 0, parent.keys[pos-1])
		n.kids = insertPID(n.kids, 0, left.kids[len(left.kids)-1])
		parent.keys[pos-1] = left.keys[last]
		left.keys = truncU64(left.keys, last)
		left.kids = truncPID(left.kids, len(left.kids)-1)
	}
	t.m.dataWrite(keySlotAddr(n.pid, 0))
	t.m.dataWrite(keySlotAddr(parent.pid, pos-1))
}

func (t *BTree) borrowFromRight(parent *bnode, pos int, n, right *bnode) {
	if n.leaf {
		n.keys = append(n.keys, right.keys[0])
		n.vals = append(n.vals, right.vals[0])
		right.keys = removeU64(right.keys, 0)
		right.vals = removeRID(right.vals, 0)
		parent.keys[pos] = right.keys[0]
	} else {
		n.keys = append(n.keys, parent.keys[pos])
		n.kids = append(n.kids, right.kids[0])
		parent.keys[pos] = right.keys[0]
		right.keys = removeU64(right.keys, 0)
		right.kids = removePID(right.kids, 0)
	}
	t.m.dataWrite(keySlotAddr(n.pid, len(n.keys)-1))
	t.m.dataWrite(keySlotAddr(parent.pid, pos))
}

// mergeNodes folds right into left; sepIdx is the parent separator between
// them.
func (t *BTree) mergeNodes(parent *bnode, sepIdx int, left, right *bnode) {
	if left.leaf {
		left.keys = append(left.keys, right.keys...)
		left.vals = append(left.vals, right.vals...)
		left.next = right.next
	} else {
		left.keys = append(left.keys, parent.keys[sepIdx])
		left.keys = append(left.keys, right.keys...)
		left.kids = append(left.kids, right.kids...)
	}
	parent.keys = removeU64(parent.keys, sepIdx)
	parent.kids = removePID(parent.kids, sepIdx+1)
	t.m.dataWrite(keySlotAddr(left.pid, 0))
	t.m.dataWrite(keySlotAddr(parent.pid, sepIdx))
	// The right node is dead; drop its frame from the pool.
	t.m.bp.drop(right.pid)
}

// node fetches a node WITHOUT buffer-pool instrumentation — used only by
// rebalance sibling peeks (Shore-MT latches siblings it already has fixed;
// we fold that cost into the merge code ranges).
func (t *BTree) node(pid PageID) *bnode {
	if f := t.m.bp.lookup(pid); f != nil {
		return f.node
	}
	panic(fmt.Sprintf("storage: missing index node %d", pid))
}

// scanRange walks leaves from the first key >= lo (or > lo when exclusive)
// and calls fn for each entry until key > hi (or >= hi when exclusive) or
// fn returns false. The per-tuple and per-leaf instrumentation is emitted
// by the caller (the index-scan operation); scanRange only emits descent
// and node reads.
func (t *BTree) scanRange(lo, hi uint64, inclLo, inclHi bool, st *descentStyle,
	onLeaf func(pid PageID), fn func(key uint64, rid RID) bool) {
	path, frames := t.descend(lo, st)
	leaf := path[len(path)-1]
	i, _ := t.searchNode(leaf, lo, st)
	t.releasePath(frames)
	for {
		for ; i < len(leaf.keys); i++ {
			k := leaf.keys[i]
			if !inclLo && k == lo {
				continue
			}
			if k > hi || (!inclHi && k == hi) {
				return
			}
			t.m.dataRead(keySlotAddr(leaf.pid, i))
			if !fn(k, leaf.vals[i]) {
				return
			}
		}
		if leaf.next == 0 {
			return
		}
		f := t.m.bp.find(t.m, leaf.next)
		leaf = f.node
		t.m.bp.unpin(f)
		if onLeaf != nil {
			onLeaf(leaf.pid)
		}
		i = 0
	}
}

// checkInvariants verifies structural invariants (ordering, fill, uniform
// leaf depth, key-range containment, chain consistency); tests call it
// after mutation storms. Returns the first violation.
func (t *BTree) checkInvariants() error {
	type item struct {
		pid    PageID
		depth  int
		lo, hi uint64 // inclusive bounds; lo=0,hi=^0 at root
		hasLo  bool
	}
	leafDepth := -1
	var prevLeafLast uint64
	var seenLeaf bool
	var walk func(it item) error
	count := 0
	walk = func(it item) error {
		n := t.node(it.pid)
		for i := 1; i < len(n.keys); i++ {
			if n.keys[i-1] >= n.keys[i] {
				return fmt.Errorf("btree %s: node %d keys out of order", t.name, n.pid)
			}
		}
		for _, k := range n.keys {
			if it.hasLo && k < it.lo {
				return fmt.Errorf("btree %s: node %d key %d below bound %d", t.name, n.pid, k, it.lo)
			}
			if k > it.hi {
				return fmt.Errorf("btree %s: node %d key %d above bound %d", t.name, n.pid, k, it.hi)
			}
		}
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = it.depth
			} else if leafDepth != it.depth {
				return fmt.Errorf("btree %s: leaf %d at depth %d, expected %d", t.name, n.pid, it.depth, leafDepth)
			}
			if seenLeaf && len(n.keys) > 0 && prevLeafLast >= n.keys[0] {
				return fmt.Errorf("btree %s: leaf chain out of order at node %d", t.name, n.pid)
			}
			if len(n.keys) > 0 {
				prevLeafLast = n.keys[len(n.keys)-1]
				seenLeaf = true
			}
			count += len(n.keys)
			return nil
		}
		if len(n.kids) != len(n.keys)+1 {
			return fmt.Errorf("btree %s: node %d has %d kids for %d keys", t.name, n.pid, len(n.kids), len(n.keys))
		}
		for i, kid := range n.kids {
			child := item{pid: kid, depth: it.depth + 1, lo: it.lo, hi: it.hi, hasLo: it.hasLo}
			if i > 0 {
				child.lo, child.hasLo = n.keys[i-1], true
			}
			if i < len(n.keys) {
				child.hi = n.keys[i] - 1
			}
			if err := walk(child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(item{pid: t.root, depth: 1, hi: ^uint64(0)}); err != nil {
		return err
	}
	if leafDepth != t.height {
		return fmt.Errorf("btree %s: height %d but leaves at depth %d", t.name, t.height, leafDepth)
	}
	if count != t.size {
		return fmt.Errorf("btree %s: size %d but %d entries found", t.name, t.size, count)
	}
	return nil
}

// Slice-edit helpers that copy on write where aliasing would corrupt
// sibling nodes.

func insertU64(s []uint64, i int, v uint64) []uint64 {
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertRID(s []RID, i int, v RID) []RID {
	s = append(s, RID{})
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertPID(s []PageID, i int, v PageID) []PageID {
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeU64(s []uint64, i int) []uint64 { return append(s[:i], s[i+1:]...) }
func removeRID(s []RID, i int) []RID       { return append(s[:i], s[i+1:]...) }
func removePID(s []PageID, i int) []PageID { return append(s[:i], s[i+1:]...) }

// trunc helpers copy the prefix into a fresh slice so a later append to the
// left node cannot scribble over the right node's entries (they shared a
// backing array at split time).
func truncU64(s []uint64, n int) []uint64 {
	out := make([]uint64, n, n+8)
	copy(out, s[:n])
	return out
}

func truncRID(s []RID, n int) []RID {
	out := make([]RID, n, n+8)
	copy(out, s[:n])
	return out
}

func truncPID(s []PageID, n int) []PageID {
	out := make([]PageID, n, n+8)
	copy(out, s[:n])
	return out
}
