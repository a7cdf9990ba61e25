package codemap

import (
	"testing"
	"testing/quick"

	"addict/internal/trace"
)

func TestLayoutNonOverlapping(t *testing.T) {
	l := NewLayout()
	segs := l.Routines()
	for i := 1; i < len(segs); i++ {
		if segs[i].Base < segs[i-1].End() {
			t.Errorf("segment %s (base %#x) overlaps %s (end %#x)",
				segs[i].Name, segs[i].Base, segs[i-1].Name, segs[i-1].End())
		}
	}
}

func TestLayoutTotalFootprintInPaperRange(t *testing.T) {
	l := NewLayout()
	bytes := l.TotalBytes()
	// Section 4.6: "Shore-MT has an instruction footprint of 128KB-256KB".
	if bytes < 128<<10 || bytes > 256<<10 {
		t.Errorf("total layout = %d bytes, want within [128KB, 256KB]", bytes)
	}
}

func TestRoutineLookup(t *testing.T) {
	l := NewLayout()
	for _, name := range []string{RFindKey, RBtreeSMO, RLatch, RFetchNext} {
		s := l.Routine(name)
		if s.Name != name {
			t.Errorf("Routine(%q).Name = %q", name, s.Name)
		}
		if s.NBlocks <= 0 {
			t.Errorf("Routine(%q).NBlocks = %d", name, s.NBlocks)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Routine(unknown) did not panic")
		}
	}()
	l.Routine("no_such_routine")
}

func TestFindCoversEveryBlock(t *testing.T) {
	l := NewLayout()
	for _, s := range l.Routines() {
		for i := 0; i < s.NBlocks; i++ {
			got, ok := l.Find(s.Addr(i))
			if !ok || got.Name != s.Name {
				t.Fatalf("Find(%#x) = %v,%v; want %s", s.Addr(i), got.Name, ok, s.Name)
			}
		}
	}
	// Addresses outside the layout are not found.
	if _, ok := l.Find(CodeBase - trace.BlockSize); ok {
		t.Error("Find below CodeBase succeeded")
	}
	last := l.Routines()[len(l.Routines())-1]
	if _, ok := l.Find(last.End()); ok {
		t.Error("Find past layout end succeeded")
	}
}

func TestNoMigrateZones(t *testing.T) {
	l := NewLayout()
	// Section 3.1.3: lock acquisition/release, latching, and log inserts are
	// short critical sections where migration points must not be placed.
	for _, name := range []string{RLockAcquire, RLockRelease, RLatch, RLogInsert} {
		s := l.Routine(name)
		if !l.NoMigrate(s.Addr(0)) || !l.NoMigrate(s.Addr(s.NBlocks-1)) {
			t.Errorf("%s should be a no-migrate zone", name)
		}
	}
	for _, name := range []string{RFindKey, RTraverse, RBtreeSMO} {
		if l.NoMigrate(l.Routine(name).Addr(0)) {
			t.Errorf("%s should allow migration points", name)
		}
	}
}

func TestEmitRangeAndLoop(t *testing.T) {
	l := NewLayout()
	s := l.Routine(RTraverse)
	b := trace.NewBuffer()
	b.TxnBegin(0, "t")
	s.EmitRange(b, 2, 5)
	s.EmitLoop(b, 0, 2, 3)
	b.TxnEnd()
	tr := b.Take()[0]
	var addrs []uint64
	for _, e := range tr.Events {
		if e.Kind() == trace.KindInstr {
			addrs = append(addrs, e.Addr())
		}
	}
	want := []uint64{s.Addr(2), s.Addr(3), s.Addr(4), s.Addr(0), s.Addr(1), s.Addr(0), s.Addr(1), s.Addr(0), s.Addr(1)}
	if len(addrs) != len(want) {
		t.Fatalf("got %d instr events, want %d", len(addrs), len(want))
	}
	for i := range want {
		if addrs[i] != want[i] {
			t.Errorf("event %d: addr %#x, want %#x", i, addrs[i], want[i])
		}
	}
}

func TestEmitBoundsChecked(t *testing.T) {
	l := NewLayout()
	s := l.Routine(RLatch)
	b := trace.NewBuffer()
	b.TxnBegin(0, "t")
	defer func() {
		if recover() == nil {
			t.Error("EmitRange out of bounds did not panic")
		}
	}()
	s.EmitRange(b, 0, s.NBlocks+1)
}

func TestAddrBoundsChecked(t *testing.T) {
	s := NewLayout().Routine(RLatch)
	defer func() {
		if recover() == nil {
			t.Error("Addr out of bounds did not panic")
		}
	}()
	_ = s.Addr(s.NBlocks)
}

// TestLayoutDeterministic: two layouts must be bit-identical — the whole
// reproduction depends on addresses being stable across runs.
func TestLayoutDeterministic(t *testing.T) {
	a, b := NewLayout(), NewLayout()
	sa, sb := a.Routines(), b.Routines()
	if len(sa) != len(sb) {
		t.Fatalf("layouts differ in routine count: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Errorf("segment %d differs: %+v vs %+v", i, sa[i], sb[i])
		}
	}
}

// TestFindMatchesLinearScan cross-checks the binary search against a lookup
// over random addresses.
func TestFindMatchesLinearScan(t *testing.T) {
	l := NewLayout()
	segs := l.Routines()
	linear := func(addr uint64) (Segment, bool) {
		for _, s := range segs {
			if s.Contains(addr) {
				return s, true
			}
		}
		return Segment{}, false
	}
	f := func(raw uint64) bool {
		addr := CodeBase + raw%uint64(l.TotalBytes()+4096)
		g1, ok1 := l.Find(addr)
		g2, ok2 := linear(addr)
		return ok1 == ok2 && g1 == g2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestFigure1Ratios checks the calibrated footprint ratios against
// Figure 1's published percentages (probe path: lookup 73% of find key,
// traverse 71% of lookup, lock 33% of traverse; update: pin 46%, update
// page 40%; insert: allocate-page 47% of create-record, SMO 65% of
// create-index-entry).
//
// Two ratios deviate deliberately: the lock fast path and pin-record sizes
// were reduced so that every migration-point action fits the 32KB L1-I with
// slack — the scheduling behaviour the paper's evaluation depends on —
// trading ~6-8 percentage points on two Figure 1 labels (measured against
// the paper's in internal/exp/testdata/fig1.golden). The live measurement
// over generated traces is done by the Fig 1 experiment; this test pins
// the static calibration.
func TestFigure1Ratios(t *testing.T) {
	l := NewLayout()
	n := func(name string) float64 { return float64(l.Routine(name).NBlocks) }

	// Footprints along the probe call path (lock fast path = 95 of 120
	// blocks is exercised on the grant path).
	lock := 95.0
	traverse := n(RTraverse) + n(RBufFind) + n(RLatch) + lock
	lookup := n(RLookup) + traverse
	findKey := n(RFindKey) + lookup

	// Update tuple.
	pin := n(RPinRecord) + n(RBufFind) + n(RLatch)
	updPage := n(RUpdatePage) + n(RLogInsert)
	upd := n(RUpdateAPI) + lock + n(RPinRecord) + n(RBufFind) + n(RLatch) + n(RUpdatePage) + n(RLogInsert)

	// Insert tuple dashed paths.
	cr := n(RCreateRecord) + n(RBufFind) + n(RLatch) + n(RLogInsert) + n(RAllocatePage)
	cie := n(RCreateIndexEntry) + n(RIndexDescent) + n(RLogInsert) + n(RBtreeSMO)

	checks := []struct {
		name      string
		got       float64
		want      float64
		tolerance float64
	}{
		{"lookup/find_key", lookup / findKey, 0.73, 0.05},
		{"traverse/lookup", traverse / lookup, 0.71, 0.05},
		{"lock/traverse", lock / traverse, 0.33, 0.07}, // deliberate: see doc comment
		{"pin/update", pin / upd, 0.40, 0.05},          // paper: 0.46; deliberate
		{"update_page/update", updPage / upd, 0.40, 0.05},
		{"allocate_page/create_record", n(RAllocatePage) / cr, 0.47, 0.05},
		{"smo/create_index_entry", n(RBtreeSMO) / cie, 0.65, 0.07},
	}
	for _, c := range checks {
		if diff := c.got - c.want; diff > c.tolerance || diff < -c.tolerance {
			t.Errorf("%s = %.3f, want %.2f ± %.2f", c.name, c.got, c.want, c.tolerance)
		}
	}
}
