package trace

import (
	"fmt"
	"slices"
)

// Recorder receives the memory events produced by an executing transaction.
// The storage manager calls it from every instrumented routine; trace
// generation uses the buffering implementation below, while tests may supply
// lightweight fakes.
type Recorder interface {
	// TxnBegin marks the entry of a transaction of the given type.
	TxnBegin(tt TxnType, name string)
	// TxnEnd marks the exit of the current transaction.
	TxnEnd()
	// OpBegin marks the entry of a database operation.
	OpBegin(op OpType)
	// OpEnd marks the exit of the current database operation.
	OpEnd(op OpType)
	// Instr records the fetch of one 64-byte instruction block.
	Instr(blockAddr uint64)
	// InstrRange records the straight-line fetch of n consecutive
	// instruction blocks starting at base. It must be equivalent to
	// Instr(base + i*BlockSize) for i in [0, n); n <= 0 records nothing.
	// Code-range emission (codemap.Segment) goes through it, so a recorder
	// pays per range rather than per block where it can.
	InstrRange(base uint64, n int)
	// Data records a data access to the 64-byte block containing addr.
	Data(addr uint64, write bool)
}

// Buffer is a Recorder that accumulates events into Trace values.
// It is not safe for concurrent use; trace generation is deterministic and
// single-goroutine (DESIGN.md Section 2).
//
// The open transaction's events collect in one scratch slice that the
// buffer reuses across transactions; TxnEnd copies them into the trace at
// exact size, so a trace never holds append's capacity slack and the
// scratch slice stops regrowing once it fits the longest transaction.
type Buffer struct {
	cur    *Trace
	events []Event // the open transaction's events (reused scratch)
	done   []*Trace
	curOp  OpType
	inTxn  bool
	inOp   bool
	panics bool
}

// NewBuffer returns an empty trace buffer. If strict is true, protocol
// violations (nested operations, events outside transactions) panic instead
// of being ignored; the storage-manager tests run strict.
func NewBuffer(strict bool) *Buffer {
	return &Buffer{panics: strict}
}

// TxnBegin implements Recorder.
func (b *Buffer) TxnBegin(tt TxnType, name string) {
	if b.inTxn {
		b.violation("TxnBegin inside open transaction")
		return
	}
	b.inTxn = true
	b.cur = &Trace{Type: tt, TypeName: name}
	b.events = append(b.events[:0], Event{Kind: KindTxnBegin, Aux: uint16(tt)})
}

// TxnEnd implements Recorder.
func (b *Buffer) TxnEnd() {
	if !b.inTxn {
		b.violation("TxnEnd without TxnBegin")
		return
	}
	if b.inOp {
		b.violation("TxnEnd with open operation")
		return
	}
	b.events = append(b.events, Event{Kind: KindTxnEnd})
	// Copy out at exact size. The make+copy pair over plain local names is
	// the form the compiler fuses into one unzeroed allocation.
	scratch := b.events
	events := make([]Event, len(scratch))
	copy(events, scratch)
	b.cur.Events = events
	b.done = append(b.done, b.cur)
	b.cur = nil
	b.inTxn = false
}

// OpBegin implements Recorder.
func (b *Buffer) OpBegin(op OpType) {
	if !b.inTxn || b.inOp {
		b.violation("OpBegin outside transaction or inside open operation")
		return
	}
	b.inOp = true
	b.curOp = op
	b.events = append(b.events, Event{Kind: KindOpBegin, Op: op})
}

// OpEnd implements Recorder.
func (b *Buffer) OpEnd(op OpType) {
	if !b.inOp || op != b.curOp {
		b.violation("OpEnd mismatch")
		return
	}
	b.inOp = false
	b.events = append(b.events, Event{Kind: KindOpEnd, Op: op})
}

// Instr implements Recorder.
func (b *Buffer) Instr(blockAddr uint64) {
	if !b.inTxn {
		return // population and background work are not traced
	}
	b.events = append(b.events, Event{Kind: KindInstr, Addr: blockAddr &^ (BlockSize - 1)})
}

// InstrRange implements Recorder: one capacity check, then the run.
func (b *Buffer) InstrRange(base uint64, n int) {
	if !b.inTxn || n <= 0 {
		return
	}
	base &^= BlockSize - 1
	start := len(b.events)
	b.events = slices.Grow(b.events, n)[:start+n]
	run := b.events[start:]
	for i := range run {
		run[i] = Event{Kind: KindInstr, Addr: base + uint64(i)*BlockSize}
	}
}

// Data implements Recorder.
func (b *Buffer) Data(addr uint64, write bool) {
	if !b.inTxn {
		return
	}
	k := KindDataRead
	if write {
		k = KindDataWrite
	}
	b.events = append(b.events, Event{Kind: k, Addr: addr &^ (BlockSize - 1)})
}

// Take returns the completed traces and resets the buffer's completed list.
func (b *Buffer) Take() []*Trace {
	t := b.done
	b.done = nil
	return t
}

// Len returns the number of completed traces held by the buffer.
func (b *Buffer) Len() int { return len(b.done) }

func (b *Buffer) violation(msg string) {
	if b.panics {
		panic(fmt.Sprintf("trace: protocol violation: %s", msg))
	}
}

// Discard is a Recorder that drops everything. The storage manager uses it
// during database population, which the paper excludes from tracing
// ("after a warm-up period", Section 4.1).
type Discard struct{}

// TxnBegin implements Recorder.
func (Discard) TxnBegin(TxnType, string) {}

// TxnEnd implements Recorder.
func (Discard) TxnEnd() {}

// OpBegin implements Recorder.
func (Discard) OpBegin(OpType) {}

// OpEnd implements Recorder.
func (Discard) OpEnd(OpType) {}

// Instr implements Recorder.
func (Discard) Instr(uint64) {}

// InstrRange implements Recorder.
func (Discard) InstrRange(uint64, int) {}

// Data implements Recorder.
func (Discard) Data(uint64, bool) {}
