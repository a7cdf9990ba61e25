package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func mkTrace(tt TxnType, ops []OpType, blocksPerOp int) *Trace {
	b := NewBuffer()
	b.TxnBegin(tt, "test")
	for _, op := range ops {
		b.OpBegin(op)
		for i := 0; i < blocksPerOp; i++ {
			b.Instr(uint64(0x400000 + i*BlockSize))
			b.Data(uint64(0x10000000+i*BlockSize), i%3 == 0)
		}
		b.OpEnd(op)
	}
	b.TxnEnd()
	return b.Take()[0]
}

func TestBufferProducesValidTrace(t *testing.T) {
	tr := mkTrace(3, []OpType{OpIndexProbe, OpUpdateTuple}, 5)
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if tr.Type != 3 {
		t.Errorf("Type = %d, want 3", tr.Type)
	}
	if got := tr.InstrBlocks(); got != 10 {
		t.Errorf("InstrBlocks = %d, want 10", got)
	}
	if got := tr.Instructions(); got != 10*InstrPerBlock {
		t.Errorf("Instructions = %d, want %d", got, 10*InstrPerBlock)
	}
}

func TestTraceOps(t *testing.T) {
	tr := mkTrace(1, []OpType{OpIndexProbe, OpInsertTuple, OpIndexProbe}, 2)
	ops := tr.Ops()
	if len(ops) != 3 {
		t.Fatalf("Ops = %d, want 3", len(ops))
	}
	want := []OpType{OpIndexProbe, OpInsertTuple, OpIndexProbe}
	for i, o := range ops {
		if o.Op != want[i] {
			t.Errorf("op %d = %v, want %v", i, o.Op, want[i])
		}
		if tr.Events[o.Start].Kind() != KindOpBegin || tr.Events[o.End-1].Kind() != KindOpEnd {
			t.Errorf("op %d slice not bracketed by OpBegin/OpEnd", i)
		}
	}
}

func TestFootprint(t *testing.T) {
	tr := mkTrace(0, []OpType{OpIndexProbe}, 7)
	instr, data := tr.Footprint()
	if len(instr) != 7 {
		t.Errorf("instruction footprint = %d blocks, want 7", len(instr))
	}
	if len(data) != 7 {
		t.Errorf("data footprint = %d blocks, want 7", len(data))
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	begin, end := MarkerEvent(KindTxnBegin, 0, 0), MarkerEvent(KindTxnEnd, 0, 0)
	opBegin := func(op OpType) Event { return MarkerEvent(KindOpBegin, op, 0) }
	opEnd := func(op OpType) Event { return MarkerEvent(KindOpEnd, op, 0) }
	instr := MemEvent(KindInstr, 0)
	cases := []struct {
		name   string
		events []Event
	}{
		{"empty", nil},
		{"no begin", []Event{instr, end}},
		{"no end", []Event{begin, instr}},
		{"nested op", []Event{
			begin,
			opBegin(OpIndexProbe),
			opBegin(OpIndexScan),
			opEnd(OpIndexScan),
			opEnd(OpIndexProbe),
			end,
		}},
		{"mismatched op end", []Event{
			begin,
			opBegin(OpIndexProbe),
			opEnd(OpIndexScan),
			end,
		}},
		{"open op at end", []Event{
			begin,
			opBegin(OpIndexProbe),
			end,
		}},
		{"unknown kind", []Event{
			begin,
			MarkerEvent(KindOpEnd+1, 0, 0),
			end,
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := &Trace{Events: c.events}
			if err := tr.Validate(); err == nil {
				t.Errorf("Validate accepted malformed trace %q", c.name)
			}
		})
	}
}

// TestEventIsOneWord: an event is one 8-byte word, the layout the resident
// trace windows and the cache's weight accounting are sized by.
func TestEventIsOneWord(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 8 {
		t.Errorf("unsafe.Sizeof(Event{}) = %d, want 8", got)
	}
}

// TestEventAccessors: every field NewEvent accepts reads back unchanged,
// the fields a kind does not carry read as zero, and the checked and
// unchecked constructors build the same word.
func TestEventAccessors(t *testing.T) {
	for _, c := range []struct {
		kind EventKind
		op   OpType
		aux  uint16
		addr uint64
	}{
		{KindInstr, 0, 0, 0},
		{KindInstr, 0, 0, 0x400000},
		{KindDataRead, 0, 0, 0xffffffffffffffc0},
		{KindDataWrite, 0, 0, 0x40},
		{KindTxnBegin, 0, 0xffff, 0},
		{KindTxnEnd, 0, 0, 0},
		{KindOpBegin, OpCommit, 0, 0},
		{KindOpEnd, 0xff, 0x1234, 0},
		{kindMask, 0xff, 0xffff, 0},
	} {
		e, err := NewEvent(c.kind, c.op, c.aux, c.addr)
		if err != nil {
			t.Fatalf("NewEvent(%v, %d, %d, %#x): %v", c.kind, c.op, c.aux, c.addr, err)
		}
		if e.Kind() != c.kind || e.Op() != c.op || e.Aux() != c.aux || e.Addr() != c.addr {
			t.Errorf("NewEvent(%v, %d, %d, %#x) reads back (%v, %d, %d, %#x)",
				c.kind, c.op, c.aux, c.addr, e.Kind(), e.Op(), e.Aux(), e.Addr())
		}
		want := MarkerEvent(c.kind, c.op, c.aux)
		if c.kind <= KindDataWrite {
			want = MemEvent(c.kind, c.addr)
		}
		if e != want || e.IsMemory() != (c.kind <= KindDataWrite) {
			t.Errorf("NewEvent(%v, ...) = %#x, constructor built %#x", c.kind, e.w, want.w)
		}
	}
}

// TestNewEventRejectsUnpackable: fields one word cannot hold are an error,
// not a silently different event.
func TestNewEventRejectsUnpackable(t *testing.T) {
	for _, c := range []struct {
		name string
		kind EventKind
		op   OpType
		aux  uint16
		addr uint64
	}{
		{"unaligned address", KindInstr, 0, 0, 0x401},
		{"memory event with op", KindDataRead, OpIndexProbe, 0, 0x40},
		{"memory event with aux", KindDataWrite, 0, 1, 0x40},
		{"marker with address", KindTxnEnd, 0, 0, 0x40},
		{"kind too wide", kindMask + 1, 0, 0, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			if e, err := NewEvent(c.kind, c.op, c.aux, c.addr); err == nil {
				t.Errorf("NewEvent accepted it as %#x", e.w)
			}
		})
	}
}

func TestBufferStrictPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func(*Buffer)
	}{
		{"double TxnBegin", func(b *Buffer) { b.TxnBegin(0, "a"); b.TxnBegin(0, "b") }},
		{"TxnEnd without begin", func(b *Buffer) { b.TxnEnd() }},
		{"nested OpBegin", func(b *Buffer) {
			b.TxnBegin(0, "a")
			b.OpBegin(OpIndexProbe)
			b.OpBegin(OpIndexScan)
		}},
		{"TxnEnd with open op", func(b *Buffer) {
			b.TxnBegin(0, "a")
			b.OpBegin(OpIndexProbe)
			b.TxnEnd()
		}},
		{"OpEnd mismatch", func(b *Buffer) {
			b.TxnBegin(0, "a")
			b.OpBegin(OpIndexProbe)
			b.OpEnd(OpIndexScan)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("buffer did not panic on %q", c.name)
				}
			}()
			c.f(NewBuffer())
		})
	}
}

func TestBufferAlignsAddresses(t *testing.T) {
	b := NewBuffer()
	b.TxnBegin(0, "t")
	b.Instr(0x400013)
	b.Data(0x10000077, true)
	b.TxnEnd()
	tr := b.Take()[0]
	if tr.Events[1].Addr() != 0x400000 {
		t.Errorf("instr addr = %#x, want %#x", tr.Events[1].Addr(), 0x400000)
	}
	if tr.Events[2].Addr() != 0x10000040 {
		t.Errorf("data addr = %#x, want %#x", tr.Events[2].Addr(), 0x10000040)
	}
}

func TestSetTypeName(t *testing.T) {
	s := &Set{Workload: "TPC-X", TypeNames: []string{"A", "B"}}
	if s.TypeName(0) != "A" || s.TypeName(9) != "txn9" {
		t.Errorf("TypeName fallback broken: %q %q", s.TypeName(0), s.TypeName(9))
	}
}

func TestCodecRoundtrip(t *testing.T) {
	s := &Set{
		Workload:  "TPC-B",
		TypeNames: []string{"AccountUpdate"},
		Traces: []*Trace{
			mkTrace(0, []OpType{OpIndexProbe, OpUpdateTuple, OpInsertTuple}, 20),
			mkTrace(0, []OpType{OpIndexProbe}, 3),
		},
	}
	var buf bytes.Buffer
	if err := WriteSet(&buf, s); err != nil {
		t.Fatalf("WriteSet: %v", err)
	}
	got, err := ReadSet(&buf)
	if err != nil {
		t.Fatalf("ReadSet: %v", err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Errorf("roundtrip mismatch:\n got %+v\nwant %+v", got, s)
	}
}

// TestCodecRejectsGarbage: malformed input, and records that no encoder
// writes, are errors, not silently repaired events. Each record case is
// well formed but for the one defect its name gives.
func TestCodecRejectsGarbage(t *testing.T) {
	s := &Set{Workload: "w", TypeNames: []string{"t"}, Traces: []*Trace{mkTrace(0, []OpType{OpIndexProbe}, 4)}}
	var buf bytes.Buffer
	if err := WriteSet(&buf, s); err != nil {
		t.Fatalf("WriteSet: %v", err)
	}
	for name, data := range map[string][]byte{
		"bad magic":               []byte("NOPE    "),
		"empty input":             nil,
		"truncated stream":        buf.Bytes()[:buf.Len()-5],
		"version 1":               append([]byte(codecMagic), 1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
		"trailing bytes":          append(oneTrace(1, recInstr, 0), 0),
		"run opens the trace":     oneTrace(2, recRun, 2),
		"run after a data access": oneTrace(2, recRead, 0, recRun, 1),
		"run past the count":      oneTrace(3, recInstr, 0, recRun, 5),
		"empty run":               oneTrace(2, recInstr, 0, recRun, 0, recInstr, 0),
		"unknown tag":             oneTrace(1, 0x7f, recInstr, 0),
		"short literal":           oneTrace(1, recLiteral, 1, 2, 3),
		"memory literal":          oneTrace(1, literal(KindInstr, 0, 0, 0x40)...),
		"marker with an address":  oneTrace(1, literal(KindTxnEnd, 0, 0, 0x40)...),
		"kind too wide":           oneTrace(1, literal(kindMask+1, 0, 0, 0)...),
		"overlong varint":         oneTrace(1, append([]byte{recInstr}, bytes.Repeat([]byte{0xff}, 11)...)...),
	} {
		if s, err := ReadSet(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: decoded %d traces, want an error", name, len(s.Traces))
		}
	}
}

// TestCodecRoundtripProperty uses testing/quick to exercise the codec with
// randomized event contents: memory events that mostly fetch the next
// instruction block (runs longer than one record holds included), and
// otherwise jump anywhere.
func TestCodecRoundtripProperty(t *testing.T) {
	f := func(seed int64, nEvents uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := &Trace{Type: TxnType(rng.Intn(16)), TypeName: "q"}
		tr.Events = append(tr.Events, MarkerEvent(KindTxnBegin, 0, uint16(tr.Type)))
		var next uint64
		for i := 0; i < int(nEvents); i++ {
			e := MemEvent(KindInstr, next)
			if rng.Intn(64) == 0 {
				// Any memory kind, anywhere.
				e = MemEvent(EventKind(rng.Intn(3)), uint64(rng.Int63()))
			}
			if e.Kind() == KindInstr {
				next = e.Addr() + BlockSize
			}
			tr.Events = append(tr.Events, e)
		}
		tr.Events = append(tr.Events, MarkerEvent(KindTxnEnd, 0, 0))
		s := &Set{Workload: "q", TypeNames: []string{"q"}, Traces: []*Trace{tr}}
		var buf bytes.Buffer
		if err := WriteSet(&buf, s); err != nil {
			return false
		}
		got, err := ReadSet(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEventKindString(t *testing.T) {
	kinds := []EventKind{KindInstr, KindDataRead, KindDataWrite, KindTxnBegin, KindTxnEnd, KindOpBegin, KindOpEnd, 99}
	want := []string{"I", "R", "W", "TxnBegin", "TxnEnd", "OpBegin", "OpEnd", "EventKind(99)"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Errorf("%d: String() = %q, want %q", i, k.String(), want[i])
		}
	}
}

func TestOpTypeString(t *testing.T) {
	ops := []OpType{OpNone, OpIndexProbe, OpIndexScan, OpUpdateTuple, OpInsertTuple, OpDeleteTuple, 77}
	want := []string{"none", "probe", "scan", "update", "insert", "delete", "OpType(77)"}
	for i, o := range ops {
		if o.String() != want[i] {
			t.Errorf("%d: String() = %q, want %q", i, o.String(), want[i])
		}
	}
}

// TestCodecDecodedSizeIsBounded: a run record expands to at most maxRun
// events, so no input of 4 KiB decodes to more than a million events. The
// densest input a hostile writer can make is all runs; random inputs
// cover the rest.
func TestCodecDecodedSizeIsBounded(t *testing.T) {
	const limit, maxEvents = 4 << 10, 1 << 20
	inputs := [][]byte{}
	dense := oneTrace(0, recInstr, 0)
	events := uint32(1)
	for len(dense)+2 <= limit {
		dense = append(dense, recRun, maxRun)
		events += maxRun
	}
	binary.LittleEndian.PutUint32(dense[len(oneTrace(0))-4:], events)
	inputs = append(inputs, dense)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		b := oneTrace(rng.Uint32())
		b = append(b, make([]byte, rng.Intn(limit-len(b)))...)
		rng.Read(b[len(oneTrace(0)):])
		inputs = append(inputs, b)
	}
	for i, data := range inputs {
		s, err := ReadSet(bytes.NewReader(data))
		if err != nil {
			if i == 0 {
				t.Fatalf("the densest valid input was rejected: %v", err)
			}
			continue
		}
		n := 0
		for _, tr := range s.Traces {
			n += len(tr.Events)
		}
		if n > maxEvents {
			t.Errorf("input %d: %d bytes decoded to %d events", i, len(data), n)
		}
		if i == 0 && n != int(events) {
			t.Errorf("dense input decoded to %d events, want %d", n, events)
		}
	}
}
