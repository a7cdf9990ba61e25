package storage

import (
	"bytes"
	"testing"

	"addict/internal/codemap"
	"addict/internal/trace"
)

// tracedManager returns a manager recording into a buffer, with one
// indexed table populated with n rows of the given payload size.
func tracedManager(t *testing.T, n int, payload int) (*Manager, *trace.Buffer, *Table) {
	t.Helper()
	m := testManager()
	tbl := m.CreateTable("t")
	tbl.CreateIndex("t_pk")
	pop := m.Begin()
	rec := make([]byte, payload)
	for i := 0; i < n; i++ {
		if _, err := m.InsertTuple(pop, tbl, []uint64{uint64(i)}, rec); err != nil {
			t.Fatalf("populate: %v", err)
		}
	}
	m.Commit(pop)
	buf := trace.NewBuffer()
	m.SetRecorder(buf)
	return m, buf, tbl
}

func TestProbeReturnsTuple(t *testing.T) {
	m, buf, tbl := tracedManager(t, 500, 80)
	buf.TxnBegin(0, "probe")
	txn := m.Begin()
	rid, rec, ok := m.IndexProbe(txn, tbl, tbl.Index(0), 123)
	if !ok {
		t.Fatal("probe of existing key failed")
	}
	if len(rec) != 80 {
		t.Errorf("tuple length = %d, want 80", len(rec))
	}
	if rid == (RID{}) {
		t.Error("zero RID returned")
	}
	if !m.lock.heldBy(txn.id, tbl.Index(0).ID(), 123) {
		t.Error("probe did not take the record lock")
	}
	// Missing key: flag, no lock.
	if _, _, ok := m.IndexProbe(txn, tbl, tbl.Index(0), 999999); ok {
		t.Error("probe of missing key succeeded")
	}
	m.Commit(txn)
	buf.TxnEnd()

	tr := buf.Take()[0]
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	ops := tr.Ops()
	// Two probes plus the commit epilogue action.
	if len(ops) != 3 || ops[0].Op != trace.OpIndexProbe || ops[2].Op != trace.OpCommit {
		t.Fatalf("ops = %+v, want two probes and a commit", ops)
	}
}

func TestUpdateTupleRewrites(t *testing.T) {
	m, buf, tbl := tracedManager(t, 100, 60)
	buf.TxnBegin(0, "upd")
	txn := m.Begin()
	rid, _, ok := m.IndexProbe(txn, tbl, tbl.Index(0), 10)
	if !ok {
		t.Fatal("probe failed")
	}
	newRec := bytes.Repeat([]byte{0xAB}, 60)
	if err := m.UpdateTuple(txn, tbl, rid, 10, newRec); err != nil {
		t.Fatal(err)
	}
	_, got, ok := m.IndexProbe(txn, tbl, tbl.Index(0), 10)
	if !ok || !bytes.Equal(got, newRec) {
		t.Error("update not visible")
	}
	m.Commit(txn)
	buf.TxnEnd()

	tr := buf.Take()[0]
	var haveWrite bool
	for _, e := range tr.Events {
		if e.Kind() == trace.KindDataWrite && e.Addr() >= DataBase {
			haveWrite = true
		}
	}
	if !haveWrite {
		t.Error("update produced no data-page write events")
	}
}

func TestInsertAllocatesPagesRarely(t *testing.T) {
	m, buf, tbl := tracedManager(t, 10, 100)
	alloc := m.Layout().Routine(codemap.RAllocatePage)
	// ~78 records per page: 1000 inserts should allocate ~12 pages.
	allocs := 0
	for i := 0; i < 1000; i++ {
		buf.TxnBegin(0, "ins")
		txn := m.Begin()
		if _, err := m.InsertTuple(txn, tbl, []uint64{uint64(1000 + i)}, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
		m.Commit(txn)
		buf.TxnEnd()
		tr := buf.Take()[0]
		seen := false
		for _, e := range tr.Events {
			if e.Kind() == trace.KindInstr && alloc.Contains(e.Addr()) {
				seen = true
				break
			}
		}
		if seen {
			allocs++
		}
	}
	if allocs < 5 || allocs > 30 {
		t.Errorf("allocate-page path taken in %d/1000 inserts, want ~13 (rare path)", allocs)
	}
}

func TestInsertDuplicateKeyFails(t *testing.T) {
	m, _, tbl := tracedManager(t, 10, 40)
	m.SetRecorder(nil)
	txn := m.Begin()
	if _, err := m.InsertTuple(txn, tbl, []uint64{5}, make([]byte, 40)); err == nil {
		t.Error("duplicate insert succeeded")
	}
	m.Abort(txn)
}

func TestInsertKeyArityChecked(t *testing.T) {
	m, _, tbl := tracedManager(t, 1, 40)
	m.SetRecorder(nil)
	txn := m.Begin()
	if _, err := m.InsertTuple(txn, tbl, nil, make([]byte, 40)); err == nil {
		t.Error("insert with missing keys succeeded")
	}
	if err := m.DeleteTuple(txn, tbl, RID{}, nil); err == nil {
		t.Error("delete with missing keys succeeded")
	}
	m.Abort(txn)
}

func TestDeleteTuple(t *testing.T) {
	m, buf, tbl := tracedManager(t, 200, 50)
	buf.TxnBegin(0, "del")
	txn := m.Begin()
	rid, _, ok := m.IndexProbe(txn, tbl, tbl.Index(0), 77)
	if !ok {
		t.Fatal("probe failed")
	}
	if err := m.DeleteTuple(txn, tbl, rid, []uint64{77}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := m.IndexProbe(txn, tbl, tbl.Index(0), 77); ok {
		t.Error("deleted key still probeable")
	}
	if err := m.DeleteTuple(txn, tbl, rid, []uint64{77}); err == nil {
		t.Error("double delete succeeded")
	}
	m.Commit(txn)
	buf.TxnEnd()
	if tbl.Rows() != 199 {
		t.Errorf("Rows = %d, want 199", tbl.Rows())
	}
}

func TestIndexScanBounds(t *testing.T) {
	m, buf, tbl := tracedManager(t, 300, 40)
	buf.TxnBegin(0, "scan")
	txn := m.Begin()
	res := m.IndexScan(txn, tbl.Index(0), 50, 60, true, true, 0)
	if len(res) != 11 || res[0].Key != 50 || res[10].Key != 60 {
		t.Errorf("scan [50,60] returned %d results (first %v)", len(res), res[0])
	}
	res = m.IndexScan(txn, tbl.Index(0), 50, 60, false, false, 0)
	if len(res) != 9 {
		t.Errorf("scan (50,60) returned %d results, want 9", len(res))
	}
	res = m.IndexScan(txn, tbl.Index(0), 0, ^uint64(0), true, true, 25)
	if len(res) != 25 {
		t.Errorf("limited scan returned %d, want 25", len(res))
	}
	m.Commit(txn)
	buf.TxnEnd()

	tr := buf.Take()[0]
	ops := tr.Ops()
	if len(ops) != 4 {
		t.Fatalf("ops = %d, want 3 scans + commit", len(ops))
	}
	for _, o := range ops[:3] {
		if o.Op != trace.OpIndexScan {
			t.Errorf("op = %v, want scan", o.Op)
		}
	}
	if ops[3].Op != trace.OpCommit {
		t.Errorf("last op = %v, want commit", ops[3].Op)
	}
}

// TestFigure1FootprintShape checks the live (measured, not static) footprint
// relationships of Figure 1 on real operation traces: scan's fetch-next part
// is several times smaller than initialize-cursor, and the probe chain
// find key > lookup > traverse holds.
func TestFigure1FootprintShape(t *testing.T) {
	m, buf, tbl := tracedManager(t, 2000, 60)
	lay := m.Layout()

	buf.TxnBegin(0, "probe")
	txn := m.Begin()
	m.IndexProbe(txn, tbl, tbl.Index(0), 1234)
	m.Commit(txn)
	buf.TxnEnd()
	tr := buf.Take()[0]

	instr, _ := tr.Footprint()
	within := func(name string) int {
		seg := lay.Routine(name)
		n := 0
		for a := range instr {
			if seg.Contains(a) {
				n++
			}
		}
		return n
	}
	// The probe trace must touch all of find_key/lookup/traverse and the
	// lock fast path but none of the insert machinery.
	if within(codemap.RFindKey) == 0 || within(codemap.RLookup) == 0 || within(codemap.RTraverse) == 0 {
		t.Error("probe trace missing its Figure 1 routines")
	}
	if within(codemap.RLockAcquire) == 0 {
		t.Error("probe did not run the lock manager")
	}
	if within(codemap.RBtreeSMO) != 0 || within(codemap.RCreateRecord) != 0 {
		t.Error("probe trace touched insert machinery")
	}
}

func TestTraceStructureAcrossMixedTransaction(t *testing.T) {
	m, buf, tbl := tracedManager(t, 500, 60)
	buf.TxnBegin(3, "mixed")
	txn := m.Begin()
	rid, _, _ := m.IndexProbe(txn, tbl, tbl.Index(0), 5)
	m.UpdateTuple(txn, tbl, rid, 5, make([]byte, 60))
	m.InsertTuple(txn, tbl, []uint64{90001}, make([]byte, 60))
	m.IndexScan(txn, tbl.Index(0), 10, 20, true, true, 0)
	rid2, _, _ := m.IndexProbe(txn, tbl, tbl.Index(0), 6)
	m.DeleteTuple(txn, tbl, rid2, []uint64{6})
	m.Commit(txn)
	buf.TxnEnd()

	tr := buf.Take()[0]
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	wantOps := []trace.OpType{
		trace.OpIndexProbe, trace.OpUpdateTuple, trace.OpInsertTuple,
		trace.OpIndexScan, trace.OpIndexProbe, trace.OpDeleteTuple,
		trace.OpCommit,
	}
	ops := tr.Ops()
	if len(ops) != len(wantOps) {
		t.Fatalf("got %d ops, want %d", len(ops), len(wantOps))
	}
	for i, o := range ops {
		if o.Op != wantOps[i] {
			t.Errorf("op %d = %v, want %v", i, o.Op, wantOps[i])
		}
	}
	if tr.Type != 3 || tr.TypeName != "mixed" {
		t.Errorf("trace type = %d %q", tr.Type, tr.TypeName)
	}
}

// TestDataAddressesDisjointFromCode: every data access must land outside the
// code layout.
func TestDataAddressesDisjointFromCode(t *testing.T) {
	m, buf, tbl := tracedManager(t, 100, 60)
	buf.TxnBegin(0, "x")
	txn := m.Begin()
	m.IndexProbe(txn, tbl, tbl.Index(0), 42)
	m.InsertTuple(txn, tbl, []uint64{55555}, make([]byte, 60))
	m.Commit(txn)
	buf.TxnEnd()
	tr := buf.Take()[0]
	lay := m.Layout()
	for _, e := range tr.Events {
		switch e.Kind() {
		case trace.KindDataRead, trace.KindDataWrite:
			if _, inCode := lay.Find(e.Addr()); inCode {
				t.Fatalf("data access %#x falls inside code layout", e.Addr())
			}
		case trace.KindInstr:
			if _, inCode := lay.Find(e.Addr()); !inCode {
				t.Fatalf("instruction fetch %#x outside code layout", e.Addr())
			}
		}
	}
}

func TestManagerCatalogAccessors(t *testing.T) {
	m := testManager()
	tbl := m.CreateTable("acc")
	idx := tbl.CreateIndex("acc_pk")
	if got, ok := m.Table("acc"); !ok || got != tbl {
		t.Error("Table lookup failed")
	}
	if _, ok := m.Table("nope"); ok {
		t.Error("Table of unknown name succeeded")
	}
	if got, ok := m.Index("acc_pk"); !ok || got != idx {
		t.Error("Index lookup failed")
	}
	if m.MustTable("acc") != tbl {
		t.Error("MustTable failed")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustTable of unknown name did not panic")
		}
	}()
	m.MustTable("nope")
}

func TestCreateIndexOnNonEmptyTablePanics(t *testing.T) {
	m, _, tbl := tracedManager(t, 5, 40)
	m.SetRecorder(nil)
	defer func() {
		if recover() == nil {
			t.Error("CreateIndex on populated table did not panic")
		}
	}()
	tbl.CreateIndex("late")
}
