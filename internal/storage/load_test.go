package storage

import (
	"slices"
	"testing"

	"addict/internal/codemap"
	"addict/internal/trace"
)

// loadRun is what one population leaves behind: its trace (when recorded
// into a buffer) and the manager's end state after commit.
type loadRun struct {
	events []trace.Event
	end    endState
}

// endState is the manager state an untraced run must leave exactly as a
// traced one does.
type endState struct {
	acquires, releases, conflicts    uint64
	logBytes, logRecords, logFlushes uint64
	lsn, pages                       uint64
	bufHits, bufMisses               uint64
	tableLen                         int
}

func endStateOf(m *Manager) endState {
	s := endState{
		logBytes:   m.LogBytes(),
		logRecords: m.wal.records,
		logFlushes: m.wal.flushes,
		lsn:        m.wal.lsn,
		pages:      m.PagesAllocated(),
		bufHits:    m.bp.hits,
		bufMisses:  m.bp.misses,
		tableLen:   len(m.lock.table),
	}
	s.acquires, s.releases, s.conflicts = m.LockStats()
	return s
}

// populate runs one population transaction started by begin on a fresh
// manager recording into rec, or untraced when rec is nil. Besides first
// acquisitions (inserts into an indexed and an unindexed table) it
// re-acquires locks it already holds: probes and updates of its own rows,
// and an S lock upgraded to X. When rec is a buffer, the population is
// recorded as one transaction whose validated events are returned.
func populate(t *testing.T, rec *trace.Buffer, begin func(*Manager) *Txn) (*Manager, loadRun) {
	t.Helper()
	m := NewManager(codemap.NewLayout())
	m.SetRecorder(rec)
	tbl := m.CreateTable("t")
	idx := tbl.CreateIndex("t_pk")
	hist := m.CreateTable("h")

	if rec != nil {
		rec.TxnBegin(0, "load")
	}
	txn := begin(m)
	row := make([]byte, 120)
	for k := uint64(0); k < 2000; k++ {
		if _, err := m.InsertTuple(txn, tbl, []uint64{k}, row); err != nil {
			t.Fatal(err)
		}
		if _, err := m.InsertTuple(txn, hist, nil, row[:40]); err != nil {
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

	r := loadRun{end: endStateOf(m)}
	if rec != nil {
		rec.TxnEnd()
		traces := rec.Take()
		if len(traces) != 1 {
			t.Fatalf("%d traces, want 1", len(traces))
		}
		if err := traces[0].Validate(); err != nil {
			t.Fatal(err)
		}
		r.events = traces[0].Events
	}
	return m, r
}

// TestLoadTxnMatchesBegin is the load path's oracle: the same population
// under Begin and under BeginLoad emits the same events and leaves the
// same counters, and both leave the lock table empty.
func TestLoadTxnMatchesBegin(t *testing.T) {
	_, want := populate(t, trace.NewBuffer(), (*Manager).Begin)
	_, got := populate(t, trace.NewBuffer(), (*Manager).BeginLoad)
	if !slices.Equal(got.events, want.events) {
		t.Errorf("load trace differs: %d events, Begin gave %d", len(got.events), len(want.events))
	}
	if got.end != want.end {
		t.Errorf("load end state %+v\nBegin gave      %+v", got.end, want.end)
	}
	if got.end.acquires != got.end.releases || got.end.acquires < 4000 {
		t.Errorf("acquires %d, releases %d: want every grant released", got.end.acquires, got.end.releases)
	}
	if got.end.tableLen != 0 || want.end.tableLen != 0 {
		t.Errorf("lock table holds %d (load) and %d (Begin) entries after commit", got.end.tableLen, want.end.tableLen)
	}
}

// tracedTxn records one Begin transaction over populate's tables into a
// buffer: probes, a scan, an update, inserts that grow the index
// and the log, and a delete. Its events depend on the tree shapes, page
// fill, buffer-pool residency and log position population left behind.
func tracedTxn(t *testing.T, m *Manager) []trace.Event {
	t.Helper()
	buf := trace.NewBuffer()
	m.SetRecorder(buf)
	tbl, hist := m.MustTable("t"), m.MustTable("h")
	idx := tbl.Index(0)

	buf.TxnBegin(1, "after")
	txn := m.Begin()
	for _, k := range []uint64{3, 1000, 1999, 5000} {
		m.IndexProbe(txn, tbl, idx, k)
	}
	if got := m.IndexScan(txn, idx, 500, 700, true, false, 0); len(got) != 200 {
		t.Fatalf("scan returned %d rows, want 200", len(got))
	}
	rid, row, ok := m.IndexProbe(txn, tbl, idx, 42)
	if !ok {
		t.Fatal("probe 42 missed")
	}
	if err := m.UpdateTuple(txn, tbl, rid, 42, row); err != nil {
		t.Fatal(err)
	}
	for k := uint64(2000); k < 2300; k++ {
		if _, err := m.InsertTuple(txn, tbl, []uint64{k}, row); err != nil {
			t.Fatal(err)
		}
		if _, err := m.InsertTuple(txn, hist, nil, row[:40]); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.DeleteTuple(txn, tbl, rid, []uint64{42}); err != nil {
		t.Fatal(err)
	}
	m.Commit(txn)
	buf.TxnEnd()
	traces := buf.Take()
	if err := traces[0].Validate(); err != nil {
		t.Fatal(err)
	}
	return traces[0].Events
}

// TestUntracedPopulationMatchesTraced is the untraced path's oracle: the
// same population untraced (no buffer) and into a buffer leaves the same
// end state, and a traced transaction run afterwards records the same
// events on both.
func TestUntracedPopulationMatchesTraced(t *testing.T) {
	untraced, want := populate(t, nil, (*Manager).BeginLoad)
	wantEvents := tracedTxn(t, untraced)
	if after := endStateOf(untraced); after.releases != after.acquires {
		t.Errorf("untraced: %d acquires, %d releases after commit", after.acquires, after.releases)
	}
	traced, got := populate(t, trace.NewBuffer(), (*Manager).BeginLoad)
	if got.end != want.end {
		t.Errorf("buffer population end state %+v\nuntraced gave %+v", got.end, want.end)
	}
	if events := tracedTxn(t, traced); !slices.Equal(events, wantEvents) {
		t.Errorf("traced transaction after population recorded %d events, untraced gave %d",
			len(events), len(wantEvents))
	}
}

// TestLoadRecorderSwitchKeepsLockCounts switches the recorder in the
// middle of a load both ways. Grants made untraced are counted and the
// others kept by name, so every grant is still released once. The buffer's
// transaction is open before it is installed, as a workload driver opens
// it, so the commit's markers are well formed.
func TestLoadRecorderSwitchKeepsLockCounts(t *testing.T) {
	for _, tc := range []struct {
		name        string
		first, then *trace.Buffer
	}{
		{"untraced then buffer", nil, trace.NewBuffer()},
		{"buffer then untraced", trace.NewBuffer(), nil},
	} {
		for _, buf := range []*trace.Buffer{tc.first, tc.then} {
			if buf != nil {
				buf.TxnBegin(0, "load")
			}
		}
		m := NewManager(codemap.NewLayout())
		m.SetRecorder(tc.first)
		load := m.BeginLoad()
		for k := uint64(0); k < 20; k++ {
			if k == 10 {
				m.SetRecorder(tc.then)
			}
			if !m.lock.acquire(m, load, 1, k, LockX) {
				t.Fatalf("%s: load grant %d denied", tc.name, k)
			}
		}
		if n := load.LockCount(); n != 20 {
			t.Errorf("%s: LockCount = %d, want 20", tc.name, n)
		}
		m.Commit(load)
		acquires, releases, _ := m.LockStats()
		if acquires != 20 || releases != 20 || load.LockCount() != 0 {
			t.Errorf("%s: acquires/releases = %d/%d, %d still held after commit", tc.name, acquires, releases, load.LockCount())
		}
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

// TestUntracedKeepsBoundsChecks: an untraced manager computes no event,
// but a code range outside its routine still panics.
func TestUntracedKeepsBoundsChecks(t *testing.T) {
	m := testManager()
	if m.rec != nil {
		t.Fatal("manager on trace.Discard is traced")
	}
	seg := &m.seg.lockAcquire
	mustPanic(t, "untraced emitRange past the routine", func() { m.emitRange(seg, 0, seg.NBlocks+1) })
	mustPanic(t, "untraced emitLoop with an inverted range", func() { m.emitLoop(seg, 30, 20, 1) })
	m.emitLoop(seg, 30, 20, 0) // zero iterations check nothing, as when traced
}
