package storage

import (
	"slices"
	"testing"

	"addict/internal/trace"
)

// loadRun is what one population leaves behind: its trace and the
// manager's counters after commit.
type loadRun struct {
	events                        []trace.Event
	acquires, releases, conflicts uint64
	logBytes, pages               uint64
	tableLen                      int
}

// populate runs one population transaction started by begin on a fresh
// manager, recorded through a strict buffer. Besides first acquisitions
// (inserts into an indexed and an unindexed table) it re-acquires locks it
// already holds: probes and updates of its own rows, and an S lock
// upgraded to X.
func populate(t *testing.T, begin func(*Manager) *Txn) loadRun {
	t.Helper()
	m := testManager()
	tbl := m.CreateTable("t")
	idx := tbl.CreateIndex("t_pk")
	hist := m.CreateTable("h")
	buf := trace.NewBuffer(true)
	m.SetRecorder(buf)

	buf.TxnBegin(0, "load")
	txn := begin(m)
	rec := make([]byte, 120)
	for k := uint64(0); k < 2000; k++ {
		if _, err := m.InsertTuple(txn, tbl, []uint64{k}, rec); err != nil {
			t.Fatal(err)
		}
		if _, err := m.InsertTuple(txn, hist, nil, rec[:40]); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 2000; k += 7 {
		rid, got, ok := m.IndexProbe(txn, tbl, idx, k)
		if !ok {
			t.Fatalf("probe %d missed", k)
		}
		if err := m.UpdateTuple(txn, tbl, rid, k, got); err != nil {
			t.Fatal(err)
		}
	}
	if !m.lock.acquire(m, txn, 99, 1, LockS) || !m.lock.acquire(m, txn, 99, 1, LockX) {
		t.Fatal("upgrade by the only holder denied")
	}
	m.Commit(txn)
	buf.TxnEnd()

	traces := buf.Take()
	if len(traces) != 1 {
		t.Fatalf("%d traces, want 1", len(traces))
	}
	if err := traces[0].Validate(); err != nil {
		t.Fatal(err)
	}
	r := loadRun{
		events:   traces[0].Events,
		logBytes: m.LogBytes(),
		pages:    m.PagesAllocated(),
		tableLen: len(m.lock.table),
	}
	r.acquires, r.releases, r.conflicts = m.LockStats()
	return r
}

// TestLoadTxnMatchesBegin is the load path's oracle: the same population
// under Begin and under BeginLoad emits the same events and leaves the
// same counters, and both leave the lock table empty.
func TestLoadTxnMatchesBegin(t *testing.T) {
	want := populate(t, (*Manager).Begin)
	got := populate(t, (*Manager).BeginLoad)
	if !slices.Equal(got.events, want.events) {
		t.Errorf("load trace differs: %d events, Begin gave %d", len(got.events), len(want.events))
	}
	if got.acquires != want.acquires || got.releases != want.releases || got.conflicts != want.conflicts {
		t.Errorf("LockStats = %d/%d/%d, Begin gave %d/%d/%d",
			got.acquires, got.releases, got.conflicts, want.acquires, want.releases, want.conflicts)
	}
	if got.acquires != got.releases || got.acquires < 4000 {
		t.Errorf("acquires %d, releases %d: want every grant released", got.acquires, got.releases)
	}
	if got.logBytes != want.logBytes || got.pages != want.pages {
		t.Errorf("LogBytes/PagesAllocated = %d/%d, Begin gave %d/%d", got.logBytes, got.pages, want.logBytes, want.pages)
	}
	if got.tableLen != 0 || want.tableLen != 0 {
		t.Errorf("lock table holds %d (load) and %d (Begin) entries after commit", got.tableLen, want.tableLen)
	}
}

// mustPanic runs fn and fails the test unless it panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestBeginLoadPanicsWhileLocksHeld(t *testing.T) {
	m := testManager()
	t1 := m.Begin()
	if !m.lock.acquire(m, t1, 1, 5, LockS) {
		t.Fatal("S denied")
	}
	mustPanic(t, "BeginLoad with a lock held", func() { m.BeginLoad() })
	m.Commit(t1)
	load := m.BeginLoad()
	mustPanic(t, "BeginLoad during a live load", func() { m.BeginLoad() })
	m.Commit(load)
	m.Commit(m.BeginLoad()) // a finished load lets the next one start
}

func TestAcquireDuringLoadPanics(t *testing.T) {
	m := testManager()
	other := m.Begin()
	load := m.BeginLoad()
	if !m.lock.acquire(m, load, 1, 5, LockX) {
		t.Fatal("load grant denied")
	}
	mustPanic(t, "another txn's acquire during a load", func() { m.lock.acquire(m, other, 1, 6, LockS) })
	m.Commit(load)
	if !m.lock.acquire(m, other, 1, 5, LockX) {
		t.Error("lock taken by a committed load still denied")
	}
}

func TestAbortLoadReleasesLocks(t *testing.T) {
	m := testManager()
	load := m.BeginLoad()
	for k := uint64(0); k < 10; k++ {
		if !m.lock.acquire(m, load, 1, k, LockX) {
			t.Fatalf("load grant %d denied", k)
		}
	}
	if n := len(m.lock.table); n != 0 {
		t.Errorf("load transaction put %d entries in the lock table", n)
	}
	m.Abort(load)
	acquires, releases, _ := m.LockStats()
	if acquires != 10 || releases != 10 {
		t.Errorf("acquires/releases = %d/%d after abort, want 10/10", acquires, releases)
	}
	next := m.Begin()
	for k := uint64(0); k < 10; k++ {
		if !m.lock.acquire(m, next, 1, k, LockX) {
			t.Fatalf("key %d still locked after the load aborted", k)
		}
	}
	if len(m.lock.table) != 10 {
		t.Errorf("lock table holds %d entries, want 10", len(m.lock.table))
	}
}
