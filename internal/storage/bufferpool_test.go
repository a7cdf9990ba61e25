package storage

import (
	"testing"

	"addict/internal/codemap"
)

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

func TestBoundedPoolEvictsAndReloads(t *testing.T) {
	m := NewManager(codemap.NewLayout(), WithBufferPoolFrames(4))
	// Install 10 pages through a table + manual allocs.
	var pids []PageID
	for i := 0; i < 10; i++ {
		pid := m.allocPage()
		m.bp.install(m, &frame{pid: pid, page: newPage(pid, 1)})
		pids = append(pids, pid)
	}
	if m.bp.resident() > 4 {
		t.Fatalf("resident = %d, capacity 4", m.bp.resident())
	}
	if m.bp.evictions == 0 {
		t.Fatal("no evictions in bounded pool")
	}
	// Every page must still be reachable (reload from "disk").
	for _, pid := range pids {
		f := m.bp.find(m, pid)
		if f.page == nil || f.pid != pid {
			t.Fatalf("reload of %d failed", pid)
		}
		m.bp.unpin(f)
	}
	if m.bp.resident() > 4 {
		t.Errorf("resident = %d after reloads, capacity 4", m.bp.resident())
	}
}

func TestBoundedPoolRespectsPins(t *testing.T) {
	m := NewManager(codemap.NewLayout(), WithBufferPoolFrames(2))
	a := m.allocPage()
	m.bp.install(m, &frame{pid: a, page: newPage(a, 1)})
	fa := m.bp.find(m, a) // pin a
	b := m.allocPage()
	m.bp.install(m, &frame{pid: b, page: newPage(b, 1)})
	c := m.allocPage()
	m.bp.install(m, &frame{pid: c, page: newPage(c, 1)}) // must evict b, not pinned a
	if m.bp.lookup(a) == nil {
		t.Error("pinned page evicted")
	}
	m.bp.unpin(fa)
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
// installs, bounded-pool evictions and reloads, and B+tree merge drops,
// and an unbounded pool keeps no clock.
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
	if len(m.bp.clock) != 0 {
		t.Errorf("unbounded pool kept %d clock entries", len(m.bp.clock))
	}

	m = NewManager(codemap.NewLayout(), WithBufferPoolFrames(3))
	var pids []PageID
	for i := 0; i < 5; i++ {
		pid := m.allocPage()
		m.bp.install(m, &frame{pid: pid, page: newPage(pid, 1)})
		pids = append(pids, pid)
		if want := min(i+1, 3); m.bp.resident() != want {
			t.Fatalf("resident = %d after %d installs, want %d", m.bp.resident(), i+1, want)
		}
	}
	if m.bp.evictions != 2 || len(m.bp.disk) != 2 {
		t.Fatalf("evictions = %d, on disk = %d, want 2 and 2", m.bp.evictions, len(m.bp.disk))
	}
	for _, pid := range pids {
		m.bp.unpin(m.bp.find(m, pid))
		if m.bp.resident() != 3 || m.bp.lookup(pid) == nil {
			t.Fatalf("page %d: resident = %d after reload, want 3 with the page resident", pid, m.bp.resident())
		}
	}
	if m.bp.resident()+len(m.bp.disk) != len(pids) {
		t.Errorf("resident %d + on disk %d, want %d pages", m.bp.resident(), len(m.bp.disk), len(pids))
	}
}
