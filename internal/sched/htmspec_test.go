package sched

import (
	"math/rand"
	"testing"

	"addict/internal/sim"
	"addict/internal/trace"
)

// htmSet wraps hand-built traces into a runnable Set.
func htmSet(traces []*trace.Trace) *trace.Set {
	return &trace.Set{Workload: "unit", TypeNames: []string{"unit"}, Traces: traces}
}

// wideWindow is one transaction whose single operation window touches n
// distinct data lines, all read or all written.
func wideWindow(n int, writes bool) *trace.Set {
	b := trace.NewBuffer()
	b.TxnBegin(0, "unit")
	b.OpBegin(0)
	b.Instr(0x400000)
	for i := 0; i < n; i++ {
		b.Data(uint64(0x200000+i*64), writes)
	}
	b.OpEnd(0)
	b.TxnEnd()
	return htmSet(b.Take())
}

// setCases are HTMSPEC's two bounded sets and their capacities.
var setCases = []struct {
	name   string
	writes bool
	lines  int
}{
	{"read-set", false, HTMSPECReadSetLines},
	{"write-set", true, HTMSPECWriteSetLines},
}

// TestHTMSPECCapacityAbort forces a set-overflow abort deterministically:
// a single thread's operation touches one line more than the set bound, so
// validation at the operation's end must take exactly one capacity abort —
// and with a single thread there is nothing to conflict with.
func TestHTMSPECCapacityAbort(t *testing.T) {
	for _, tc := range setCases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(HTMSPEC, wideWindow(tc.lines+1, tc.writes), Config{Machine: sim.Shallow()})
			if err != nil {
				t.Fatal(err)
			}
			want := sim.SpecStats{CapacityAborts: 1}
			if res.Spec != want {
				t.Errorf("Spec = %+v, want %+v", res.Spec, want)
			}
		})
	}
}

// TestHTMSPECSetBoundary pins each set's capacity exactly: a window
// touching as many distinct lines as the bound commits, and one more line
// aborts. The capacities are spelled out (64 read, 32 written lines): the
// bounds are frozen, and the pinned replay input never fills the read set,
// so this is the test that holds HTMSPECReadSetLines to its value.
func TestHTMSPECSetBoundary(t *testing.T) {
	for _, tc := range []struct {
		name   string
		writes bool
		lines  int
	}{
		{"read-set", false, 64},
		{"write-set", true, 32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, c := range []struct {
				lines int
				want  sim.SpecStats
			}{
				{tc.lines, sim.SpecStats{}},
				{tc.lines + 1, sim.SpecStats{CapacityAborts: 1}},
			} {
				res, err := Run(HTMSPEC, wideWindow(c.lines, tc.writes), Config{Machine: sim.Shallow()})
				if err != nil {
					t.Fatal(err)
				}
				if res.Spec != c.want {
					t.Errorf("%d lines: Spec = %+v, want %+v", c.lines, res.Spec, c.want)
				}
			}
		})
	}
}

// TestHTMSPECConflictAbort forces a conflicting-line abort
// deterministically: a reader opens its region, reads a line, and pads
// long enough that a second thread's write to the same line lands before
// the region validates. The reader must take exactly one conflict abort;
// the writer's own region commits (a thread never conflicts with itself).
func TestHTMSPECConflictAbort(t *testing.T) {
	const line = uint64(0x300000)
	rb := trace.NewBuffer()
	rb.TxnBegin(0, "unit")
	rb.OpBegin(0)
	rb.Data(line, false)
	for i := 0; i < 3000; i++ {
		rb.Instr(0x400000) // warm pad: holds the region open past the write
	}
	rb.OpEnd(0)
	rb.TxnEnd()

	wb := trace.NewBuffer()
	wb.TxnBegin(0, "unit")
	for i := 0; i < 300; i++ {
		wb.Instr(0x410000) // pre-region pad: the reader's region opens first
	}
	wb.OpBegin(1)
	wb.Data(line, true)
	wb.OpEnd(1)
	wb.TxnEnd()

	res, err := Run(HTMSPEC, htmSet(append(rb.Take(), wb.Take()...)), Config{Machine: sim.Shallow()})
	if err != nil {
		t.Fatal(err)
	}
	want := sim.SpecStats{ConflictAborts: 1}
	if res.Spec != want {
		t.Errorf("Spec = %+v, want %+v", res.Spec, want)
	}
}

// TestHTMSPECFallbackAfterMaxAborts forces the bounded-retry fallback: with
// every operation overflowing the read set, the first HTMSPECMaxAborts
// operations abort, the thread falls back, and the next operation must run
// non-speculatively (no further abort).
func TestHTMSPECFallbackAfterMaxAborts(t *testing.T) {
	b := trace.NewBuffer()
	b.TxnBegin(0, "unit")
	for op := 0; op < HTMSPECMaxAborts+1; op++ {
		b.OpBegin(trace.OpType(op))
		b.Instr(0x400000)
		for i := 0; i < HTMSPECReadSetLines+1; i++ {
			b.Data(uint64(0x500000+i*64), false)
		}
		b.OpEnd(trace.OpType(op))
	}
	b.TxnEnd()

	res, err := Run(HTMSPEC, htmSet(b.Take()), Config{Machine: sim.Shallow()})
	if err != nil {
		t.Fatal(err)
	}
	want := sim.SpecStats{CapacityAborts: HTMSPECMaxAborts, Fallbacks: 1}
	if res.Spec != want {
		t.Errorf("Spec = %+v, want %+v", res.Spec, want)
	}
}

// TestHTMSPECConflictTableNeverInvents checks the conflict table's claim —
// slot aliasing "can lose but never invent" conflicts — against an exact
// per-line last-writer map. A seeded random stream of data writes and
// region starts across several threads drives the real bookkeeping
// (observeOne); at random points a thread validates one line, chosen from
// the recent writes half the time so conflicts are common. The table may
// miss a conflict the oracle sees (another line evicted the slot), but it
// must never report one the oracle lacks.
func TestHTMSPECConflictTableNeverInvents(t *testing.T) {
	const (
		threads = 6
		lines   = 1 << 16 // 8x the table's slots, so aliasing is common
		steps   = 200000
	)
	h := newHTMSpecHooks(sim.Shallow().Cores)
	h.st = make([]htmState, threads)
	ths := make([]*sim.Thread, threads)
	for i := range ths {
		ths[i] = &sim.Thread{ID: i}
	}

	type write struct {
		stamp uint64
		owner int
	}
	last := make(map[uint64]write)
	var recent [64]uint64
	rng := rand.New(rand.NewSource(1))
	var reported, lost int
	for i := 0; i < steps; i++ {
		th := ths[rng.Intn(threads)]
		switch r := rng.Intn(1000); {
		case r < 5:
			h.Observe(th, trace.MarkerEvent(trace.KindOpBegin, 0, 0), sim.AccessOutcome{})
		case r < 700:
			line := uint64(rng.Intn(lines)) * 64
			h.Observe(th, trace.MemEvent(trace.KindDataWrite, line), sim.AccessOutcome{})
			last[line] = write{stamp: h.clock, owner: th.ID}
			recent[i%len(recent)] = line
		default:
			line := uint64(rng.Intn(lines)) * 64
			if rng.Intn(2) == 0 {
				line = recent[rng.Intn(len(recent))]
			}
			start := h.st[th.ID].startStamp
			got := h.conflicts([]uint64{line}, start, th.ID)
			w, written := last[line]
			want := written && w.stamp > start && w.owner != th.ID
			switch {
			case got && !want:
				t.Fatalf("step %d: thread %d line %#x: table reports a conflict the oracle lacks (start %d, last write %+v)",
					i, th.ID, line, start, w)
			case got:
				reported++
			case want:
				lost++
			}
		}
	}
	t.Logf("conflicts: %d reported, %d lost to slot aliasing", reported, lost)
	if reported == 0 || lost == 0 {
		t.Errorf("stream exercised too little: %d reported, %d lost (want both > 0)", reported, lost)
	}
}
