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

// TestHTMSPECCapacityAbort forces a set-overflow abort deterministically:
// a single thread's operation touches more distinct lines than the set
// bound, so validation at the operation's end must take exactly one
// capacity abort — and with a single thread there is nothing to conflict
// with.
func TestHTMSPECCapacityAbort(t *testing.T) {
	build := func(writes bool) *trace.Set {
		b := trace.NewBuffer(true)
		b.TxnBegin(0, "unit")
		b.OpBegin(0)
		b.Instr(0x400000)
		for i := 0; i < 8; i++ {
			b.Data(uint64(0x200000+i*64), writes)
		}
		b.OpEnd(0)
		b.TxnEnd()
		return htmSet(b.Take())
	}
	for _, tc := range []struct {
		name   string
		writes bool
	}{
		{"read-set", false},
		{"write-set", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(sim.Shallow())
			cfg.HTMSPECReadSetLines = 4
			cfg.HTMSPECWriteSetLines = 4
			cfg.HTMSPECMaxAborts = 100 // keep the fallback out of the way
			res, err := Run(HTMSPEC, build(tc.writes), cfg)
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

// TestHTMSPECConflictAbort forces a conflicting-line abort
// deterministically: a reader opens its region, reads a line, and pads
// long enough that a second thread's write to the same line lands before
// the region validates. The reader must take exactly one conflict abort;
// the writer's own region commits (a thread never conflicts with itself).
func TestHTMSPECConflictAbort(t *testing.T) {
	const line = uint64(0x300000)
	rb := trace.NewBuffer(true)
	rb.TxnBegin(0, "unit")
	rb.OpBegin(0)
	rb.Data(line, false)
	for i := 0; i < 3000; i++ {
		rb.Instr(0x400000) // warm pad: holds the region open past the write
	}
	rb.OpEnd(0)
	rb.TxnEnd()

	wb := trace.NewBuffer(true)
	wb.TxnBegin(0, "unit")
	for i := 0; i < 300; i++ {
		wb.Instr(0x410000) // pre-region pad: the reader's region opens first
	}
	wb.OpBegin(1)
	wb.Data(line, true)
	wb.OpEnd(1)
	wb.TxnEnd()

	cfg := DefaultConfig(sim.Shallow())
	cfg.HTMSPECMaxAborts = 100
	res, err := Run(HTMSPEC, htmSet(append(rb.Take(), wb.Take()...)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := sim.SpecStats{ConflictAborts: 1}
	if res.Spec != want {
		t.Errorf("Spec = %+v, want %+v", res.Spec, want)
	}
}

// TestHTMSPECFallbackAfterMaxAborts forces the bounded-retry fallback: with
// a two-abort budget and every operation overflowing the read set, the
// first two operations abort, the thread falls back, and the third
// operation must run non-speculatively (no third abort).
func TestHTMSPECFallbackAfterMaxAborts(t *testing.T) {
	b := trace.NewBuffer(true)
	b.TxnBegin(0, "unit")
	for op := 0; op < 3; op++ {
		b.OpBegin(trace.OpType(op))
		b.Instr(0x400000)
		for i := 0; i < 4; i++ {
			b.Data(uint64(0x500000+i*64), false)
		}
		b.OpEnd(trace.OpType(op))
	}
	b.TxnEnd()

	cfg := DefaultConfig(sim.Shallow())
	cfg.HTMSPECReadSetLines = 2
	cfg.HTMSPECMaxAborts = 2
	res, err := Run(HTMSPEC, htmSet(b.Take()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := sim.SpecStats{CapacityAborts: 2, Fallbacks: 1}
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
	cfg := DefaultConfig(sim.Shallow())
	h := newHTMSpecHooks(cfg)
	h.st = make([]htmState, threads)
	ths := make([]*sim.Thread, threads)
	for i := range ths {
		ths[i] = &sim.Thread{ID: i}
		h.st[i].readSet = make([]uint64, cfg.HTMSPECReadSetLines)
		h.st[i].writeSet = make([]uint64, cfg.HTMSPECWriteSetLines)
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
			h.Observe(th, trace.Event{Kind: trace.KindOpBegin}, sim.AccessOutcome{})
		case r < 700:
			line := uint64(rng.Intn(lines)) * 64
			h.Observe(th, trace.Event{Kind: trace.KindDataWrite, Addr: line}, sim.AccessOutcome{})
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
