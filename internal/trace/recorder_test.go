package trace

import (
	"math/rand"
	"reflect"
	"testing"
)

// recordScript drives a buffer through a seeded random event script. Code
// runs are recorded through emit, so two buffers that differ only in how
// they record runs can be compared event for event. Runs also fall between
// transactions, where a Buffer must drop them.
func recordScript(rec *Buffer, seed int64, emit func(rec *Buffer, base uint64, n int)) {
	rng := rand.New(rand.NewSource(seed))
	for txn := 0; txn < 20; txn++ {
		emit(rec, uint64(rng.Intn(1<<20)), rng.Intn(40)) // outside any transaction
		rec.TxnBegin(TxnType(txn%3), "t")
		for op := 0; op < 1+rng.Intn(4); op++ {
			o := OpType(1 + rng.Intn(NumOpTypes-1))
			rec.OpBegin(o)
			for k := 0; k < rng.Intn(8); k++ {
				// Unaligned bases and empty runs included.
				emit(rec, 0x400000+uint64(rng.Intn(1<<16)), rng.Intn(300)-10)
				rec.Data(0x1000_0000+uint64(rng.Intn(1<<20)), rng.Intn(2) == 0)
			}
			rec.OpEnd(o)
		}
		emit(rec, 0x400000, rng.Intn(5))
		rec.TxnEnd()
	}
}

func perBlock(rec *Buffer, base uint64, n int) {
	for i := 0; i < n; i++ {
		rec.Instr(base + uint64(i)*BlockSize)
	}
}

func ranged(rec *Buffer, base uint64, n int) { rec.InstrRange(base, n) }

// TestInstrRangeMatchesPerBlock is the buffer range contract:
// InstrRange(base, n) records exactly the events of n Instr calls, inside a
// transaction and (as nothing) outside one.
func TestInstrRangeMatchesPerBlock(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		want, got := NewBuffer(), NewBuffer()
		recordScript(want, seed, perBlock)
		recordScript(got, seed, ranged)
		w, g := want.Take(), got.Take()
		if len(w) != 20 || len(g) != 20 {
			t.Fatalf("seed %d: %d and %d traces, want 20", seed, len(w), len(g))
		}
		for i := range w {
			if err := g[i].Validate(); err != nil {
				t.Fatalf("seed %d trace %d: %v", seed, i, err)
			}
			if !reflect.DeepEqual(w[i], g[i]) {
				t.Fatalf("seed %d trace %d: InstrRange events differ from per-block Instr", seed, i)
			}
		}
	}
}

// TestBufferTracesOwnTheirEvents: the buffer reuses one scratch slice
// across transactions, so a completed trace must hold its own copy, at
// exact size, that later transactions cannot overwrite.
func TestBufferTracesOwnTheirEvents(t *testing.T) {
	b := NewBuffer()
	var kept []*Trace
	var snapshots [][]Event
	for txn := 0; txn < 4; txn++ {
		b.TxnBegin(TxnType(txn), "t")
		b.InstrRange(uint64(0x400000+txn*0x10000), 100+txn)
		b.Data(uint64(0x1000_0000+txn*64), true)
		b.TxnEnd()
		tr := b.Take()[0]
		if cap(tr.Events) != len(tr.Events) {
			t.Errorf("txn %d: cap(Events) = %d, want len %d", txn, cap(tr.Events), len(tr.Events))
		}
		kept = append(kept, tr)
		snapshots = append(snapshots, append([]Event(nil), tr.Events...))
	}
	for i, tr := range kept {
		if !reflect.DeepEqual(tr.Events, snapshots[i]) {
			t.Errorf("trace %d changed after later transactions", i)
		}
	}
}
