package trace

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// BlockSize is the cache-block granularity of all recorded addresses, in
// bytes. The paper measures footprints "as the unique 64byte cache blocks
// requested by each operation" (Section 2.1).
const BlockSize = 64

// BlockShift is log2(BlockSize).
const BlockShift = 6

// EventKind discriminates trace events.
type EventKind uint8

// Trace event kinds. Instruction fetches and data accesses carry an address;
// the Begin/End markers carry transaction/operation identifiers, mirroring
// the "indicators ... that correspond to the entry and exit points of the
// transactions or operations" taken as input by Algorithm 1.
const (
	// KindInstr is a fetch of one 64-byte instruction block. Executing it
	// represents executing the instructions it holds (see InstrPerBlock).
	KindInstr EventKind = iota
	// KindDataRead is a data load from a 64-byte block.
	KindDataRead
	// KindDataWrite is a data store to a 64-byte block.
	KindDataWrite
	// KindTxnBegin marks a transaction entry; Aux holds the TxnType.
	KindTxnBegin
	// KindTxnEnd marks a transaction exit.
	KindTxnEnd
	// KindOpBegin marks a database-operation entry; Aux holds the OpType.
	KindOpBegin
	// KindOpEnd marks a database-operation exit; Aux holds the OpType.
	KindOpEnd
)

// String returns a short human-readable name for the kind.
func (k EventKind) String() string {
	switch k {
	case KindInstr:
		return "I"
	case KindDataRead:
		return "R"
	case KindDataWrite:
		return "W"
	case KindTxnBegin:
		return "TxnBegin"
	case KindTxnEnd:
		return "TxnEnd"
	case KindOpBegin:
		return "OpBegin"
	case KindOpEnd:
		return "OpEnd"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// InstrPerBlock is the number of dynamic instructions represented by one
// instruction-block fetch event. x86 instructions average ~4 bytes, so a
// 64-byte block holds ~16; MPKI figures divide miss counts by
// (blocks executed × InstrPerBlock) / 1000.
const InstrPerBlock = 16

// OpType identifies one of the predefined database operations of
// Section 2.1.
type OpType uint8

// The database operations transactions are composed of. OpNone marks code
// executed outside any operation (transaction glue). OpCommit is not one of
// the paper's five operations: it brackets the commit epilogue (commit log
// record + lock release), giving the scheduler an action boundary for the
// per-transaction epilogue code exactly as for the operations proper.
const (
	OpNone OpType = iota
	OpIndexProbe
	OpIndexScan
	OpUpdateTuple
	OpInsertTuple
	OpDeleteTuple
	OpCommit

	NumOpTypes = 7
)

// String returns the paper's name for the operation.
func (o OpType) String() string {
	switch o {
	case OpNone:
		return "none"
	case OpIndexProbe:
		return "probe"
	case OpIndexScan:
		return "scan"
	case OpUpdateTuple:
		return "update"
	case OpInsertTuple:
		return "insert"
	case OpDeleteTuple:
		return "delete"
	case OpCommit:
		return "commit"
	default:
		return fmt.Sprintf("OpType(%d)", uint8(o))
	}
}

// TxnType identifies a transaction type within a workload (e.g. TPC-C
// NewOrder). Values are workload-scoped; package workload assigns them.
type TxnType uint16

// Event is one element of a trace, packed into one 64-bit word because the
// stability experiment (Section 4.2) keeps 11,000 traces per workload
// resident. A memory event (KindInstr, KindDataRead, KindDataWrite) holds
// its block-aligned address with the kind in the six low bits the
// alignment leaves zero. A marker holds kind | op<<8 | aux<<16 and no
// address. Events compare with ==. Outside this package the constructors
// below are the only way to build one (the zero Event is an instruction
// fetch of block 0).
type Event struct {
	w uint64
}

// kindMask selects the kind: the low bits a block address leaves zero.
const kindMask = BlockSize - 1

// MemEvent returns the memory event of kind k on the block holding addr. k
// must be KindInstr, KindDataRead or KindDataWrite.
func MemEvent(k EventKind, addr uint64) Event {
	return Event{addr&^kindMask | uint64(k)}
}

// MarkerEvent returns the marker of kind k carrying op and aux. k must be a
// marker kind (KindTxnBegin through KindOpEnd).
func MarkerEvent(k EventKind, op OpType, aux uint16) Event {
	return Event{uint64(k) | uint64(op)<<8 | uint64(aux)<<16}
}

// NewEvent returns the event with the given fields, or an error if one word
// cannot hold them: a kind the low bits cannot hold, a memory event with an
// unaligned address or a nonzero op or aux, or a marker with an address.
// Decoding goes through it, so no input yields an event that would read
// back different fields.
func NewEvent(k EventKind, op OpType, aux uint16, addr uint64) (Event, error) {
	switch {
	case k > kindMask:
		return Event{}, fmt.Errorf("trace: event kind %d does not fit the packed word", k)
	case k > KindDataWrite && addr != 0:
		return Event{}, fmt.Errorf("trace: %v marker with address %#x", k, addr)
	case k > KindDataWrite:
		return MarkerEvent(k, op, aux), nil
	case addr%BlockSize != 0:
		return Event{}, fmt.Errorf("trace: unaligned address %#x", addr)
	case op != 0 || aux != 0:
		return Event{}, fmt.Errorf("trace: %v event with op %d aux %d", k, op, aux)
	}
	return MemEvent(k, addr), nil
}

// Kind returns the event's kind.
func (e Event) Kind() EventKind { return EventKind(e.w & kindMask) }

// IsMemory reports whether the event is an instruction fetch or data access.
func (e Event) IsMemory() bool { return e.w&kindMask <= uint64(KindDataWrite) }

// Addr returns the block address of a memory event, zero for a marker.
func (e Event) Addr() uint64 { return e.w &^ kindMask & e.memMask() }

// Op returns the OpType of a KindOpBegin/KindOpEnd marker, zero for a
// memory event.
func (e Event) Op() OpType { return OpType(e.w >> 8 &^ e.memMask()) }

// Aux returns the TxnType of a KindTxnBegin marker, zero for a memory
// event.
func (e Event) Aux() uint16 { return uint16(e.w >> 16 &^ e.memMask()) }

// memMask is all ones for a memory event and zero for a marker, so the
// accessors select their field without a branch.
func (e Event) memMask() uint64 {
	return uint64((int64(e.w&kindMask) - int64(KindTxnBegin)) >> 63)
}

// Trace is the recorded execution of a single transaction.
type Trace struct {
	// Type is the transaction type that produced the trace.
	Type TxnType
	// TypeName is the workload's human-readable transaction name
	// (e.g. "NewOrder").
	TypeName string
	// Events is the event sequence, beginning with KindTxnBegin and ending
	// with KindTxnEnd.
	Events []Event
}

// Instructions returns the number of dynamic instructions represented by the
// trace (instruction-block fetches × InstrPerBlock).
func (t *Trace) Instructions() uint64 {
	var blocks uint64
	for _, e := range t.Events {
		if e.Kind() == KindInstr {
			blocks++
		}
	}
	return blocks * InstrPerBlock
}

// InstrBlocks returns the number of instruction-block fetch events.
func (t *Trace) InstrBlocks() uint64 {
	var blocks uint64
	for _, e := range t.Events {
		if e.Kind() == KindInstr {
			blocks++
		}
	}
	return blocks
}

// Footprint returns the sets of unique instruction and data blocks touched by
// the trace.
func (t *Trace) Footprint() (instr, data map[uint64]struct{}) {
	instr = make(map[uint64]struct{})
	data = make(map[uint64]struct{})
	for _, e := range t.Events {
		switch e.Kind() {
		case KindInstr:
			instr[e.Addr()] = struct{}{}
		case KindDataRead, KindDataWrite:
			data[e.Addr()] = struct{}{}
		}
	}
	return instr, data
}

// OpSlice is the sub-trace of a single database-operation invocation:
// Events[Start:End] covers everything between (and including) the operation's
// OpBegin and OpEnd markers.
type OpSlice struct {
	Op         OpType
	Start, End int
}

// Ops returns the database-operation invocations in the trace, in execution
// order. Operations do not nest (the storage manager's five operations are
// flat API calls, Section 2.1).
func (t *Trace) Ops() []OpSlice {
	var ops []OpSlice
	start := -1
	var cur OpType
	for i, e := range t.Events {
		switch e.Kind() {
		case KindOpBegin:
			start = i
			cur = e.Op()
		case KindOpEnd:
			if start >= 0 {
				ops = append(ops, OpSlice{Op: cur, Start: start, End: i + 1})
				start = -1
			}
		}
	}
	return ops
}

// Validate checks the structural invariants of a trace: it must be bracketed
// by TxnBegin/TxnEnd, operations must be properly paired and non-nested, and
// every event must be of a known kind. (An unaligned address cannot be
// represented, so there is nothing to check there.)
func (t *Trace) Validate() error {
	if len(t.Events) < 2 {
		return fmt.Errorf("trace: too short (%d events)", len(t.Events))
	}
	if t.Events[0].Kind() != KindTxnBegin {
		return fmt.Errorf("trace: first event is %v, want TxnBegin", t.Events[0].Kind())
	}
	if t.Events[len(t.Events)-1].Kind() != KindTxnEnd {
		return fmt.Errorf("trace: last event is %v, want TxnEnd", t.Events[len(t.Events)-1].Kind())
	}
	inOp := false
	var openOp OpType
	for i, e := range t.Events {
		switch e.Kind() {
		case KindTxnBegin:
			if i != 0 {
				return fmt.Errorf("trace: TxnBegin at interior position %d", i)
			}
		case KindTxnEnd:
			if i != len(t.Events)-1 {
				return fmt.Errorf("trace: TxnEnd at interior position %d", i)
			}
			if inOp {
				return fmt.Errorf("trace: TxnEnd with operation %v still open", openOp)
			}
		case KindOpBegin:
			if inOp {
				return fmt.Errorf("trace: nested OpBegin(%v) inside %v at %d", e.Op(), openOp, i)
			}
			inOp = true
			openOp = e.Op()
		case KindOpEnd:
			if !inOp {
				return fmt.Errorf("trace: OpEnd(%v) without OpBegin at %d", e.Op(), i)
			}
			if e.Op() != openOp {
				return fmt.Errorf("trace: OpEnd(%v) does not match OpBegin(%v) at %d", e.Op(), openOp, i)
			}
			inOp = false
		case KindInstr, KindDataRead, KindDataWrite:
		default:
			return fmt.Errorf("trace: unknown event kind %d at %d", e.Kind(), i)
		}
	}
	return nil
}

// Set is an ordered collection of transaction traces — the unit the
// experiments operate on ("11000 transaction traces for each workload",
// Section 4.1).
type Set struct {
	// Workload is the benchmark name ("TPC-B", "TPC-C", "TPC-E").
	Workload string
	// TypeNames maps TxnType to transaction names for this workload.
	TypeNames []string
	// Traces holds the transaction traces in generation order.
	Traces []*Trace
}

// ByType groups trace indices by transaction type.
func (s *Set) ByType() map[TxnType][]int {
	m := make(map[TxnType][]int)
	for i, t := range s.Traces {
		m[t.Type] = append(m[t.Type], i)
	}
	return m
}

// Slice returns a new Set sharing the same metadata but holding only
// Traces[lo:hi]. It mirrors the paper's trace batching ("the first 1000 ...
// the next batch of 1000", Section 4.1).
func (s *Set) Slice(lo, hi int) *Set {
	return &Set{Workload: s.Workload, TypeNames: s.TypeNames, Traces: s.Traces[lo:hi]}
}

// TypeName returns the name of a transaction type, falling back to a numeric
// form for unknown types.
func (s *Set) TypeName(tt TxnType) string {
	if int(tt) < len(s.TypeNames) {
		return s.TypeNames[tt]
	}
	return fmt.Sprintf("txn%d", tt)
}

// MergeSets concatenates part sets into one Set, preserving part order. The
// workload metadata is taken from the first part (sharded generation
// produces parts of the same workload). Traces are shared, not copied.
func MergeSets(parts ...*Set) *Set {
	out := &Set{}
	for i, p := range parts {
		if i == 0 {
			out.Workload = p.Workload
			out.TypeNames = append([]string(nil), p.TypeNames...)
		}
		out.Traces = append(out.Traces, p.Traces...)
	}
	return out
}

// Digest returns a 64-bit FNV-1a hash over the set's full content —
// workload name, type names, and every event of every trace. Two sets with
// the same digest are (up to hash collision) identical trace-for-trace;
// the determinism tests use it to assert that sharded generation is
// independent of the worker count.
func (s *Set) Digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(s.Workload))
	for _, n := range s.TypeNames {
		h.Write([]byte{0})
		h.Write([]byte(n))
	}
	u64(uint64(len(s.Traces)))
	for _, t := range s.Traces {
		u64(uint64(t.Type))
		u64(uint64(len(t.Events)))
		for _, e := range t.Events {
			u64(e.Addr())
			u64(uint64(e.Kind()) | uint64(e.Op())<<8 | uint64(e.Aux())<<16)
		}
	}
	return h.Sum64()
}
