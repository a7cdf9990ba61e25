package storage

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"addict/internal/codemap"
)

func testManager() *Manager {
	return NewManager(codemap.NewLayout())
}

func newTestTree(m *Manager) *BTree {
	tbl := m.CreateTable("bt_test")
	return tbl.CreateIndex("bt_test_idx")
}

func TestBTreeInsertProbe(t *testing.T) {
	m := testManager()
	bt := newTestTree(m)
	for i := uint64(0); i < 1000; i++ {
		if !bt.insertEntry(i*7, RID{Page: PageID(i), Slot: uint16(i)}) {
			t.Fatalf("insert %d failed", i)
		}
	}
	if bt.Size() != 1000 {
		t.Fatalf("Size = %d, want 1000", bt.Size())
	}
	if err := bt.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 1000; i++ {
		rid, ok := bt.probe(i*7, m.traverseStyle())
		if !ok || rid.Page != PageID(i) {
			t.Fatalf("probe %d = %v, %v", i*7, rid, ok)
		}
	}
	if _, ok := bt.probe(3, m.traverseStyle()); ok {
		t.Error("probe of absent key succeeded")
	}
}

func TestBTreeRejectsDuplicates(t *testing.T) {
	m := testManager()
	bt := newTestTree(m)
	if !bt.insertEntry(42, RID{Page: 1}) {
		t.Fatal("first insert failed")
	}
	if bt.insertEntry(42, RID{Page: 2}) {
		t.Error("duplicate insert succeeded")
	}
	if bt.Size() != 1 {
		t.Errorf("Size = %d after duplicate, want 1", bt.Size())
	}
}

func TestBTreeGrowsHeight(t *testing.T) {
	m := testManager()
	bt := newTestTree(m)
	if bt.Height() != 1 {
		t.Fatalf("new tree height = %d", bt.Height())
	}
	for i := uint64(0); i < 40000; i++ {
		bt.insertEntry(i, RID{Page: PageID(i)})
	}
	if bt.Height() < 3 {
		t.Errorf("height = %d after 40k inserts with fanout %d, want >= 3", bt.Height(), bt.fanout)
	}
	splits, rootSplits, _ := bt.Splits()
	if splits == 0 || rootSplits == 0 {
		t.Errorf("splits=%d rootSplits=%d, want both > 0", splits, rootSplits)
	}
	if err := bt.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeDelete(t *testing.T) {
	m := testManager()
	bt := newTestTree(m)
	const n = 5000
	for i := uint64(0); i < n; i++ {
		bt.insertEntry(i, RID{Page: PageID(i)})
	}
	// Delete every other key.
	for i := uint64(0); i < n; i += 2 {
		if !bt.deleteEntry(i) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if bt.Size() != n/2 {
		t.Fatalf("Size = %d, want %d", bt.Size(), n/2)
	}
	if err := bt.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		_, ok := bt.probe(i, m.traverseStyle())
		if want := i%2 == 1; ok != want {
			t.Fatalf("probe %d = %v, want %v", i, ok, want)
		}
	}
	if bt.deleteEntry(0) {
		t.Error("double delete succeeded")
	}
}

func TestBTreeDeleteAllCollapsesRoot(t *testing.T) {
	m := testManager()
	bt := newTestTree(m)
	const n = 3000
	for i := uint64(0); i < n; i++ {
		bt.insertEntry(i, RID{})
	}
	grown := bt.Height()
	for i := uint64(0); i < n; i++ {
		if !bt.deleteEntry(i) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if bt.Size() != 0 {
		t.Errorf("Size = %d after deleting all", bt.Size())
	}
	if bt.Height() >= grown {
		t.Errorf("height %d did not shrink from %d", bt.Height(), grown)
	}
	if err := bt.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	_, _, merges := bt.Splits()
	if merges == 0 {
		t.Error("no merges recorded while draining the tree")
	}
}

func TestBTreeScanRange(t *testing.T) {
	m := testManager()
	bt := newTestTree(m)
	for i := uint64(0); i < 500; i++ {
		bt.insertEntry(i*10, RID{Page: PageID(i)})
	}
	collect := func(lo, hi uint64, inclLo, inclHi bool) []uint64 {
		var keys []uint64
		bt.scanRange(lo, hi, inclLo, inclHi, m.traverseStyle(), nil,
			func(k uint64, _ RID) bool {
				keys = append(keys, k)
				return true
			})
		return keys
	}
	got := collect(100, 150, true, true)
	want := []uint64{100, 110, 120, 130, 140, 150}
	if len(got) != len(want) {
		t.Fatalf("scan [100,150] = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan [100,150] = %v, want %v", got, want)
		}
	}
	if got := collect(100, 150, false, false); len(got) != 4 || got[0] != 110 || got[3] != 140 {
		t.Errorf("scan (100,150) = %v", got)
	}
	// Scan crossing many leaves.
	if got := collect(0, ^uint64(0), true, true); len(got) != 500 {
		t.Errorf("full scan returned %d keys, want 500", len(got))
	}
	// Early termination.
	n := 0
	bt.scanRange(0, ^uint64(0), true, true, m.traverseStyle(), nil,
		func(uint64, RID) bool { n++; return n < 7 })
	if n != 7 {
		t.Errorf("early-terminated scan visited %d, want 7", n)
	}
}

// TestBTreeAgainstReferenceModel runs randomized insert/delete/probe storms
// against a map+sorted-slice reference.
func TestBTreeAgainstReferenceModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := testManager()
		bt := newTestTree(m)
		ref := make(map[uint64]RID)
		for step := 0; step < 4000; step++ {
			key := uint64(rng.Intn(800)) // small domain → plenty of collisions/deletes
			switch rng.Intn(3) {
			case 0, 1:
				rid := RID{Page: PageID(rng.Uint32()), Slot: uint16(rng.Intn(100))}
				_, exists := ref[key]
				if bt.insertEntry(key, rid) == exists {
					t.Logf("seed %d step %d: insert(%d) mismatch (exists=%v)", seed, step, key, exists)
					return false
				}
				if !exists {
					ref[key] = rid
				}
			case 2:
				_, exists := ref[key]
				if bt.deleteEntry(key) != exists {
					t.Logf("seed %d step %d: delete(%d) mismatch", seed, step, key)
					return false
				}
				delete(ref, key)
			}
		}
		if bt.Size() != len(ref) {
			t.Logf("seed %d: size %d != ref %d", seed, bt.Size(), len(ref))
			return false
		}
		if err := bt.checkInvariants(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for k, rid := range ref {
			got, ok := bt.probe(k, m.traverseStyle())
			if !ok || got != rid {
				t.Logf("seed %d: probe(%d) = %v,%v want %v", seed, k, got, ok, rid)
				return false
			}
		}
		// Full scan yields exactly the sorted reference keys.
		var keys []uint64
		bt.scanRange(0, ^uint64(0), true, true, m.traverseStyle(), nil,
			func(k uint64, _ RID) bool { keys = append(keys, k); return true })
		if len(keys) != len(ref) || !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
			t.Logf("seed %d: scan wrong (%d keys)", seed, len(keys))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestBTreeRandomOrderInsert exercises splits at every level with shuffled
// keys.
func TestBTreeRandomOrderInsert(t *testing.T) {
	m := testManager()
	bt := newTestTree(m)
	rng := rand.New(rand.NewSource(99))
	keys := rng.Perm(20000)
	for _, k := range keys {
		if !bt.insertEntry(uint64(k), RID{Page: PageID(k)}) {
			t.Fatalf("insert %d failed", k)
		}
	}
	if err := bt.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if _, ok := bt.probe(uint64(k), m.traverseStyle()); !ok {
			t.Fatalf("probe %d failed", k)
		}
	}
}
