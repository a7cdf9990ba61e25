package core

import (
	"testing"

	"addict/internal/cache"
	"addict/internal/trace"
)

// tinyL1I: 4 blocks, direct-mapped-ish (2 ways, 2 sets) so tests trigger
// evictions with few addresses.
func tinyCfg() ProfileConfig {
	return ProfileConfig{L1I: cache.Config{SizeBytes: 4 * trace.BlockSize, Ways: 2, Name: "L1-I"}}
}

// mkOpTrace builds a single-txn trace with one op of the given instruction
// addresses.
func mkOpTrace(tt trace.TxnType, ops map[trace.OpType][]uint64, order []trace.OpType) *trace.Trace {
	b := trace.NewBuffer()
	b.TxnBegin(tt, "x")
	for _, op := range order {
		b.OpBegin(op)
		for _, a := range ops[op] {
			b.Instr(a)
		}
		b.OpEnd(op)
	}
	b.TxnEnd()
	return b.Take()[0]
}

func blocks(idx ...int) []uint64 {
	out := make([]uint64, len(idx))
	for i, v := range idx {
		out[i] = uint64(v) * trace.BlockSize
	}
	return out
}

func TestProfileNoEvictionsNoPoints(t *testing.T) {
	// 3 distinct blocks fit a 4-block cache: no evictions → empty sequence.
	tr := mkOpTrace(0, map[trace.OpType][]uint64{
		trace.OpIndexProbe: blocks(0, 1, 2),
	}, []trace.OpType{trace.OpIndexProbe})
	s := &trace.Set{Workload: "w", TypeNames: []string{"x"}, Traces: []*trace.Trace{tr}}
	prof := FindMigrationPoints(s, tinyCfg())
	op := prof.Txns[0].Ops[trace.OpIndexProbe]
	if len(op.Seq) != 0 {
		t.Errorf("Seq = %v, want empty", op.Seq)
	}
	if op.Instances != 1 || op.SeqCount != 1 {
		t.Errorf("instances=%d count=%d", op.Instances, op.SeqCount)
	}
}

func TestProfileEvictionCreatesPoint(t *testing.T) {
	// Blocks 0..4 with a 4-block (2set×2way) cache: blocks 0,2,4 map to set
	// 0; fetching 4 evicts 0 → migration point at block 4.
	tr := mkOpTrace(0, map[trace.OpType][]uint64{
		trace.OpIndexProbe: blocks(0, 1, 2, 3, 4),
	}, []trace.OpType{trace.OpIndexProbe})
	s := &trace.Set{Workload: "w", TypeNames: []string{"x"}, Traces: []*trace.Trace{tr}}
	prof := FindMigrationPoints(s, tinyCfg())
	op := prof.Txns[0].Ops[trace.OpIndexProbe]
	if len(op.Seq) != 1 || op.Seq[0] != 4*trace.BlockSize {
		t.Errorf("Seq = %#v, want [block 4]", op.Seq)
	}
}

func TestProfileMostFrequentWins(t *testing.T) {
	// 9 instances evict at block 4; 1 instance (different path) evicts at
	// block 6 — mirroring the paper's example where sequence (1) with
	// count 9 beats sequence (2) with count 1 (Section 3.1.2).
	var traces []*trace.Trace
	for i := 0; i < 9; i++ {
		traces = append(traces, mkOpTrace(0, map[trace.OpType][]uint64{
			trace.OpInsertTuple: blocks(0, 1, 2, 3, 4),
		}, []trace.OpType{trace.OpInsertTuple}))
	}
	traces = append(traces, mkOpTrace(0, map[trace.OpType][]uint64{
		trace.OpInsertTuple: blocks(0, 1, 2, 3, 6),
	}, []trace.OpType{trace.OpInsertTuple}))
	s := &trace.Set{Workload: "w", TypeNames: []string{"x"}, Traces: traces}
	prof := FindMigrationPoints(s, tinyCfg())
	op := prof.Txns[0].Ops[trace.OpInsertTuple]
	if len(op.Seq) != 1 || op.Seq[0] != 4*trace.BlockSize {
		t.Errorf("Seq = %#v, want the 9-instance sequence", op.Seq)
	}
	if op.SeqCount != 9 || op.Instances != 10 || op.Alternatives != 2 {
		t.Errorf("count=%d instances=%d alts=%d", op.SeqCount, op.Instances, op.Alternatives)
	}
	if got := op.Support(); got != 0.9 {
		t.Errorf("Support = %v", got)
	}
}

func TestProfileNoMigrateZoneDefersPoint(t *testing.T) {
	cfg := tinyCfg()
	// Block 4 is inside a critical section: the eviction there must not
	// become a migration point; block 6's later eviction becomes one.
	cfg.NoMigrate = func(addr uint64) bool { return addr == 4*trace.BlockSize }
	tr := mkOpTrace(0, map[trace.OpType][]uint64{
		trace.OpIndexProbe: blocks(0, 1, 2, 3, 4, 6, 0, 2),
	}, []trace.OpType{trace.OpIndexProbe})
	s := &trace.Set{Workload: "w", TypeNames: []string{"x"}, Traces: []*trace.Trace{tr}}
	prof := FindMigrationPoints(s, cfg)
	op := prof.Txns[0].Ops[trace.OpIndexProbe]
	for _, a := range op.Seq {
		if a == 4*trace.BlockSize {
			t.Errorf("migration point inside no-migrate zone: %v", op.Seq)
		}
	}
	if len(op.Seq) == 0 {
		t.Error("deferred point never placed")
	}
}

func TestProfileSeparatesTxnTypes(t *testing.T) {
	t1 := mkOpTrace(0, map[trace.OpType][]uint64{trace.OpIndexProbe: blocks(0, 1, 2, 3, 4)},
		[]trace.OpType{trace.OpIndexProbe})
	t2 := mkOpTrace(1, map[trace.OpType][]uint64{trace.OpIndexProbe: blocks(8, 9, 10, 11, 12)},
		[]trace.OpType{trace.OpIndexProbe})
	s := &trace.Set{Workload: "w", TypeNames: []string{"a", "b"}, Traces: []*trace.Trace{t1, t2}}
	prof := FindMigrationPoints(s, tinyCfg())
	if len(prof.Txns) != 2 {
		t.Fatalf("profiled %d types", len(prof.Txns))
	}
	a := prof.Txns[0].Ops[trace.OpIndexProbe].Seq
	b := prof.Txns[1].Ops[trace.OpIndexProbe].Seq
	if SeqEqual(a, b) {
		t.Error("per-type sequences should differ (ADDICT picks points per transaction type)")
	}
}

// TestPaperWorkedExample reproduces Sections 3.1.2 + 3.2.2: two transaction
// types with given migration sequences; checks the core assignment and the
// prev-ordering migration behavior.
func TestPaperWorkedExample(t *testing.T) {
	// Profile equivalent to the example's map m:
	//   xct1 → insert → 0x8b5f5f 0x899397 → 9
	//   xct2 → probe  → 0x98560e 0x8d97bc → 10
	//   xct2 → update → 0x9557f0 → 5
	// (Addresses block-aligned here; the paper's raw PCs identify blocks.)
	a1, a2 := uint64(0x8b5f40), uint64(0x899380) // xct1 insert points
	b1, b2 := uint64(0x985600), uint64(0x8d9780) // xct2 probe points
	c1 := uint64(0x9557c0)                       // xct2 update point
	prof := &Profile{
		Workload: "example",
		Txns: map[trace.TxnType]*TxnProfile{
			1: {
				Type: 1, Name: "xct1", Instances: 10,
				Ops: map[trace.OpType]*OpProfile{
					trace.OpInsertTuple: {Op: trace.OpInsertTuple, Seq: []uint64{a1, a2}, SeqCount: 9, Instances: 10},
				},
				OpOrder: []trace.OpType{trace.OpInsertTuple},
			},
			2: {
				Type: 2, Name: "xct2", Instances: 15,
				Ops: map[trace.OpType]*OpProfile{
					trace.OpIndexProbe:  {Op: trace.OpIndexProbe, Seq: []uint64{b1, b2}, SeqCount: 10, Instances: 10},
					trace.OpUpdateTuple: {Op: trace.OpUpdateTuple, Seq: []uint64{c1}, SeqCount: 5, Instances: 5},
				},
				OpOrder: []trace.OpType{trace.OpIndexProbe, trace.OpUpdateTuple},
			},
		},
		Config: DefaultProfileConfig(),
	}

	asg := prof.Assign(16)
	x1 := asg.PerTxn[1]
	// Expected (Section 3.2.2): xct1 entry→core0, insert entry→core1,
	// 0x8b5f5f→core2 (prev 0), 0x899397→core3 (prev 0x8b5f5f).
	if x1.Entry.Cores[0] != 0 {
		t.Errorf("xct1 entry core = %v", x1.Entry.Cores)
	}
	ins := x1.Ops[trace.OpInsertTuple]
	if ins.Entry.Cores[0] != 1 {
		t.Errorf("insert entry core = %v", ins.Entry.Cores)
	}
	if ins.Points[0].Cores[0] != 2 || ins.Points[0].Prev != 0 {
		t.Errorf("point0 = %+v", ins.Points[0])
	}
	if ins.Points[1].Cores[0] != 3 || ins.Points[1].Prev != a1 {
		t.Errorf("point1 = %+v", ins.Points[1])
	}
	x2 := asg.PerTxn[2]
	upd := x2.Ops[trace.OpUpdateTuple]
	// probe: entry core1, points core2,core3 → update entry core4, point core5.
	if upd.Entry.Cores[0] != 4 || upd.Points[0].Cores[0] != 5 {
		t.Errorf("xct2 update assignment: entry=%v point=%v", upd.Entry.Cores, upd.Points[0].Cores)
	}

	// Migration behavior (Section 3.2.2's instruction sequence): 0x899397
	// first seen BEFORE 0x8b5f5f must not migrate; after it, it must.
	tk := MakeTracker(x1)
	step := func(ev trace.Event) (int, bool) {
		pt, ok := tk.Next(ev)
		if !ok {
			return -1, false
		}
		return pt.Cores[0], true
	}
	if c, ok := step(trace.MarkerEvent(trace.KindTxnBegin, 0, 1)); !ok || c != 0 {
		t.Fatalf("txn entry → %d,%v", c, ok)
	}
	if c, ok := step(trace.MarkerEvent(trace.KindOpBegin, trace.OpInsertTuple, 0)); !ok || c != 1 {
		t.Fatalf("insert entry → %d,%v", c, ok)
	}
	if _, ok := step(trace.MemEvent(trace.KindInstr, a2)); ok {
		t.Fatal("0x899397 migrated before its previous point (order check broken)")
	}
	if c, ok := step(trace.MemEvent(trace.KindInstr, a1)); !ok || c != 2 {
		t.Fatalf("0x8b5f5f → %d,%v, want core2", c, ok)
	}
	if c, ok := step(trace.MemEvent(trace.KindInstr, a2)); !ok || c != 3 {
		t.Fatalf("0x899397 (after prev) → %d,%v, want core3", c, ok)
	}
	// Re-encountering a consumed point must not re-migrate.
	if _, ok := step(trace.MemEvent(trace.KindInstr, a1)); ok {
		t.Fatal("re-encountered point migrated again")
	}
}

// TestLoadBalancingDropsLeastFrequentFirst reproduces the Section 3.2.3
// four-core example: with xct2's probe (freq 10, 2 points) and update
// (freq 5, 1 point), a 4-core machine drops update's 0x9557f0 first, then
// probe's 0x8d97bc.
func TestLoadBalancingDropsLeastFrequentFirst(t *testing.T) {
	prof := &Profile{
		Workload: "example",
		Txns: map[trace.TxnType]*TxnProfile{
			2: {
				Type: 2, Name: "xct2", Instances: 15,
				Ops: map[trace.OpType]*OpProfile{
					trace.OpIndexProbe:  {Op: trace.OpIndexProbe, Seq: []uint64{0x1000, 0x2000}, Instances: 10},
					trace.OpUpdateTuple: {Op: trace.OpUpdateTuple, Seq: []uint64{0x3000}, Instances: 5},
				},
				OpOrder: []trace.OpType{trace.OpIndexProbe, trace.OpUpdateTuple},
			},
		},
		Config: DefaultProfileConfig(),
	}
	asg := prof.Assign(4)
	ta := asg.PerTxn[2]
	if ta.Fallback {
		t.Fatal("unexpected fallback")
	}
	upd := ta.Ops[trace.OpUpdateTuple]
	if len(upd.Points) != 0 || upd.Dropped != 1 {
		t.Errorf("update points = %d (dropped %d), want all dropped", len(upd.Points), upd.Dropped)
	}
	probe := ta.Ops[trace.OpIndexProbe]
	if len(probe.Points) != 1 || probe.Dropped != 1 {
		t.Errorf("probe points = %d (dropped %d), want 1 kept", len(probe.Points), probe.Dropped)
	}
	// 4 cores: txn entry 0, probe entry 1, probe point 2, update entry 3.
	if probe.Points[0].Cores[0] != 2 || ta.Ops[trace.OpUpdateTuple].Entry.Cores[0] != 3 {
		t.Errorf("assignment after dropping: probe pt %v, update entry %v",
			probe.Points[0].Cores, upd.Entry.Cores)
	}
}

// TestLoadBalancingReplicatesFrequentOps reproduces the ten-core case:
// probe's points get two cores each, update's entry gets the leftover.
func TestLoadBalancingReplicatesFrequentOps(t *testing.T) {
	prof := &Profile{
		Workload: "example",
		Txns: map[trace.TxnType]*TxnProfile{
			2: {
				Type: 2, Name: "xct2", Instances: 15,
				Ops: map[trace.OpType]*OpProfile{
					trace.OpIndexProbe:  {Op: trace.OpIndexProbe, Seq: []uint64{0x1000, 0x2000}, Instances: 10},
					trace.OpUpdateTuple: {Op: trace.OpUpdateTuple, Seq: []uint64{0x3000}, Instances: 5},
				},
				OpOrder: []trace.OpType{trace.OpIndexProbe, trace.OpUpdateTuple},
			},
		},
		Config: DefaultProfileConfig(),
	}
	asg := prof.Assign(10)
	ta := asg.PerTxn[2]
	probe := ta.Ops[trace.OpIndexProbe]
	// Base map uses 6 cores; surplus 4 goes to probe (freq 10) first:
	// probe entry, point0, point1 get replicas, then update entry.
	if len(probe.Entry.Cores) != 2 || len(probe.Points[0].Cores) != 2 || len(probe.Points[1].Cores) != 2 {
		t.Errorf("probe replicas: entry=%v p0=%v p1=%v",
			probe.Entry.Cores, probe.Points[0].Cores, probe.Points[1].Cores)
	}
	upd := ta.Ops[trace.OpUpdateTuple]
	if len(upd.Entry.Cores) != 2 {
		t.Errorf("update entry replicas = %v, want the leftover core", upd.Entry.Cores)
	}
}

func TestFallbackWhenEntriesExceedCores(t *testing.T) {
	ops := make(map[trace.OpType]*OpProfile)
	var order []trace.OpType
	for i := trace.OpIndexProbe; i <= trace.OpDeleteTuple; i++ {
		ops[i] = &OpProfile{Op: i, Instances: 1}
		order = append(order, i)
	}
	prof := &Profile{
		Workload: "x",
		Txns: map[trace.TxnType]*TxnProfile{
			0: {Type: 0, Name: "big", Ops: ops, OpOrder: order},
		},
		Config: DefaultProfileConfig(),
	}
	asg := prof.Assign(3) // 1 txn entry + 5 op entries > 3 cores
	if !asg.PerTxn[0].Fallback {
		t.Error("expected fallback on a machine smaller than the op entries")
	}
	// Tracker under fallback never migrates.
	tk := MakeTracker(asg.PerTxn[0])
	if _, ok := tk.Next(trace.MarkerEvent(trace.KindTxnBegin, 0, 0)); ok {
		t.Error("fallback tracker migrated")
	}
}

func TestTrackerUnknownOp(t *testing.T) {
	prof := &Profile{
		Workload: "x",
		Txns: map[trace.TxnType]*TxnProfile{
			0: {
				Type: 0, Name: "t",
				Ops: map[trace.OpType]*OpProfile{
					trace.OpIndexProbe: {Op: trace.OpIndexProbe, Seq: []uint64{0x40}, Instances: 3},
				},
				OpOrder: []trace.OpType{trace.OpIndexProbe},
			},
		},
		Config: DefaultProfileConfig(),
	}
	tk := MakeTracker(prof.Assign(8).PerTxn[0])
	tk.Next(trace.MarkerEvent(trace.KindTxnBegin, 0, 0))
	// An operation that was never profiled: no hint, no crash.
	if _, ok := tk.Next(trace.MarkerEvent(trace.KindOpBegin, trace.OpDeleteTuple, 0)); ok {
		t.Error("unknown op produced a migration")
	}
	// Its instructions don't match probe's points either.
	if _, ok := tk.Next(trace.MemEvent(trace.KindInstr, 0x40)); ok {
		t.Error("instruction inside unknown op migrated")
	}
	tk.Next(trace.MarkerEvent(trace.KindOpEnd, trace.OpDeleteTuple, 0))
	// Back to a known op: works again.
	if _, ok := tk.Next(trace.MarkerEvent(trace.KindOpBegin, trace.OpIndexProbe, 0)); !ok {
		t.Error("known op after unknown op did not migrate")
	}
}

func TestTrackerReset(t *testing.T) {
	prof := &Profile{
		Workload: "x",
		Txns: map[trace.TxnType]*TxnProfile{
			0: {
				Type: 0, Name: "t",
				Ops: map[trace.OpType]*OpProfile{
					trace.OpIndexProbe: {Op: trace.OpIndexProbe, Seq: []uint64{0x40, 0x80}, Instances: 3},
				},
				OpOrder: []trace.OpType{trace.OpIndexProbe},
			},
		},
		Config: DefaultProfileConfig(),
	}
	tk := MakeTracker(prof.Assign(8).PerTxn[0])
	tk.Next(trace.MarkerEvent(trace.KindOpBegin, trace.OpIndexProbe, 0))
	tk.Next(trace.MemEvent(trace.KindInstr, 0x40))
	tk.Reset()
	// After reset the prev chain restarts: 0x80 must not fire first.
	tk.Next(trace.MarkerEvent(trace.KindOpBegin, trace.OpIndexProbe, 0))
	if _, ok := tk.Next(trace.MemEvent(trace.KindInstr, 0x80)); ok {
		t.Error("prev chain survived Reset")
	}
}

func TestStabilityCounter(t *testing.T) {
	cfg := tinyCfg()
	stable := func() *trace.Trace {
		return mkOpTrace(0, map[trace.OpType][]uint64{trace.OpIndexProbe: blocks(0, 1, 2, 3, 4)},
			[]trace.OpType{trace.OpIndexProbe})
	}
	divergent := mkOpTrace(0, map[trace.OpType][]uint64{trace.OpIndexProbe: blocks(0, 1, 2, 3, 6)},
		[]trace.OpType{trace.OpIndexProbe})
	s := &trace.Set{Workload: "w", TypeNames: []string{"x"},
		Traces: []*trace.Trace{stable(), stable(), stable()}}
	prof := FindMigrationPoints(s, cfg)

	sc := NewStabilityCounter(prof)
	sc.AddTrace(stable())
	sc.AddTrace(stable())
	sc.AddTrace(divergent)
	rows := sc.Rows()
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Instances != 3 || r.Matches != 2 {
		t.Errorf("row = %+v, want 2/3 matches", r)
	}
	if got := r.MatchRate(); got < 0.66 || got > 0.67 {
		t.Errorf("MatchRate = %v", got)
	}
}

func TestHardwareBudget(t *testing.T) {
	// Section 3.2.4: "a core can keep up to 50 migration points in less
	// than 1KB" — 50×152 + 92 bits < 8192 bits.
	ta := &TxnAssignment{Ops: map[trace.OpType]*OpAssignment{}}
	pts := make([]PointAssignment, 45)
	ta.Ops[trace.OpIndexProbe] = &OpAssignment{Points: pts} // 1 txn + 1 op entry + 45 = 47
	ta.Ops[trace.OpUpdateTuple] = &OpAssignment{Points: make([]PointAssignment, 2)}
	if ta.TotalPoints() != 50 {
		t.Fatalf("TotalPoints = %d", ta.TotalPoints())
	}
	if bits := ta.HardwareBits(); bits >= 8192 {
		t.Errorf("HardwareBits = %d, want < 8192 (1KB)", bits)
	}
}

func TestSeqEqual(t *testing.T) {
	if !SeqEqual(nil, nil) || !SeqEqual([]uint64{1}, []uint64{1}) {
		t.Error("equal sequences reported unequal")
	}
	if SeqEqual([]uint64{1}, []uint64{2}) || SeqEqual([]uint64{1}, []uint64{1, 2}) {
		t.Error("unequal sequences reported equal")
	}
}

func TestAssignDeterministic(t *testing.T) {
	tr := mkOpTrace(0, map[trace.OpType][]uint64{
		trace.OpIndexProbe:  blocks(0, 1, 2, 3, 4, 5, 6),
		trace.OpUpdateTuple: blocks(8, 9, 10, 11, 12),
	}, []trace.OpType{trace.OpIndexProbe, trace.OpUpdateTuple})
	s := &trace.Set{Workload: "w", TypeNames: []string{"x"}, Traces: []*trace.Trace{tr, tr, tr}}
	p1 := FindMigrationPoints(s, tinyCfg())
	p2 := FindMigrationPoints(s, tinyCfg())
	a1, a2 := p1.Assign(16), p2.Assign(16)
	for tt, t1 := range a1.PerTxn {
		t2 := a2.PerTxn[tt]
		for op, o1 := range t1.Ops {
			o2 := t2.Ops[op]
			if len(o1.Points) != len(o2.Points) {
				t.Fatalf("nondeterministic assignment for op %v", op)
			}
			for i := range o1.Points {
				if o1.Points[i].Addr != o2.Points[i].Addr || o1.Points[i].Cores[0] != o2.Points[i].Cores[0] {
					t.Fatalf("point %d differs across runs", i)
				}
			}
		}
	}
}
