package storage

import "testing"

func TestBufferPoolFindPinsAndHits(t *testing.T) {
	m := testManager()
	tbl := m.CreateTable("bp_t")
	f := tbl.page(tbl.cur)
	if f.pins != 1 {
		t.Errorf("pins = %d, want 1", f.pins)
	}
	m.bp.unpin(f)
	if f.pins != 0 {
		t.Errorf("pins = %d after unpin", f.pins)
	}
	if m.bp.hits == 0 {
		t.Error("no hit recorded")
	}
}

func TestBufferPoolUnpinUnderflowPanics(t *testing.T) {
	m := testManager()
	tbl := m.CreateTable("bp_t")
	f := tbl.page(tbl.cur)
	m.bp.unpin(f)
	defer func() {
		if recover() == nil {
			t.Error("unpin of unpinned frame did not panic")
		}
	}()
	m.bp.unpin(f)
}

func TestBufferPoolMissingPagePanics(t *testing.T) {
	m := testManager()
	defer func() {
		if recover() == nil {
			t.Error("find of nonexistent page did not panic")
		}
	}()
	m.bp.find(m, 424242)
}

func TestInstallDuplicatePanics(t *testing.T) {
	m := testManager()
	pid := m.allocPage()
	m.bp.install(m, &frame{pid: pid, page: newPage(pid, 1)})
	defer func() {
		if recover() == nil {
			t.Error("duplicate install did not panic")
		}
	}()
	m.bp.install(m, &frame{pid: pid, page: newPage(pid, 1)})
}

// TestFrameTableResidentCount: the frame table's resident count follows
// installs and B+tree merge drops.
func TestFrameTableResidentCount(t *testing.T) {
	m := testManager()
	bt := newTestTree(m) // the table's first page and the tree's root
	if got := m.bp.resident(); got != 2 {
		t.Fatalf("resident = %d after creating a table and an index, want 2", got)
	}
	const n = 3000
	for i := uint64(0); i < n; i++ {
		bt.insertEntry(i, RID{})
	}
	grown := m.bp.resident()
	if want := int(m.PagesAllocated()); grown != want {
		t.Fatalf("resident = %d, want every allocated page (%d)", grown, want)
	}
	for i := uint64(0); i < n; i++ {
		bt.deleteEntry(i)
	}
	live := 0
	for pid := PageID(1); pid <= PageID(m.PagesAllocated()); pid++ {
		if m.bp.lookup(pid) != nil {
			live++
		}
	}
	if got := m.bp.resident(); got != live || got >= grown || m.bp.lookup(bt.root) == nil {
		t.Errorf("resident = %d after draining the tree, want %d frames in the table and fewer than %d", got, live, grown)
	}
}
