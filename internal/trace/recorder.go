package trace

import "slices"

// Buffer records the memory events of executing transactions into Trace
// values. The storage manager writes into it from every instrumented
// routine while it is installed (storage.Manager.SetRecorder); with no
// buffer installed the manager records nothing. A protocol violation
// (nested operations, an unmatched end marker) panics; instruction and data
// events outside a transaction are dropped, since population and
// background work are not traced.
//
// A Buffer is not safe for concurrent use; trace generation is
// deterministic and single-goroutine (DESIGN.md Section 2).
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
}

// NewBuffer returns an empty trace buffer.
func NewBuffer() *Buffer { return &Buffer{} }

// TxnBegin marks the entry of a transaction of the given type.
func (b *Buffer) TxnBegin(tt TxnType, name string) {
	if b.inTxn {
		panic("trace: protocol violation: TxnBegin inside open transaction")
	}
	b.inTxn = true
	b.cur = &Trace{Type: tt, TypeName: name}
	b.events = append(b.events[:0], MarkerEvent(KindTxnBegin, OpNone, uint16(tt)))
}

// TxnEnd marks the exit of the open transaction and completes its trace.
func (b *Buffer) TxnEnd() {
	if !b.inTxn {
		panic("trace: protocol violation: TxnEnd without TxnBegin")
	}
	if b.inOp {
		panic("trace: protocol violation: TxnEnd with open operation")
	}
	b.events = append(b.events, MarkerEvent(KindTxnEnd, OpNone, 0))
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

// OpBegin marks the entry of a database operation.
func (b *Buffer) OpBegin(op OpType) {
	if !b.inTxn || b.inOp {
		panic("trace: protocol violation: OpBegin outside transaction or inside open operation")
	}
	b.inOp = true
	b.curOp = op
	b.events = append(b.events, MarkerEvent(KindOpBegin, op, 0))
}

// OpEnd marks the exit of the open database operation.
func (b *Buffer) OpEnd(op OpType) {
	if !b.inOp || op != b.curOp {
		panic("trace: protocol violation: OpEnd mismatch")
	}
	b.inOp = false
	b.events = append(b.events, MarkerEvent(KindOpEnd, op, 0))
}

// Instr records the fetch of one 64-byte instruction block.
func (b *Buffer) Instr(blockAddr uint64) {
	if !b.inTxn {
		return // population and background work are not traced
	}
	b.events = append(b.events, MemEvent(KindInstr, blockAddr))
}

// InstrRange records the straight-line fetch of n consecutive instruction
// blocks starting at base: exactly the events of Instr(base + i*BlockSize)
// for i in [0, n), in one capacity check. n <= 0 records nothing.
func (b *Buffer) InstrRange(base uint64, n int) {
	if !b.inTxn || n <= 0 {
		return
	}
	start := len(b.events)
	b.events = slices.Grow(b.events, n)[:start+n]
	run := b.events[start:]
	for i := range run {
		run[i] = MemEvent(KindInstr, base+uint64(i)*BlockSize)
	}
}

// Data records a data access to the 64-byte block containing addr.
func (b *Buffer) Data(addr uint64, write bool) {
	if !b.inTxn {
		return
	}
	k := KindDataRead
	if write {
		k = KindDataWrite
	}
	b.events = append(b.events, MemEvent(k, addr))
}

// Take returns the completed traces and resets the buffer's completed list.
func (b *Buffer) Take() []*Trace {
	t := b.done
	b.done = nil
	return t
}
