package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mkTrace(tt TxnType, ops []OpType, blocksPerOp int) *Trace {
	b := NewBuffer(true)
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
		if tr.Events[o.Start].Kind != KindOpBegin || tr.Events[o.End-1].Kind != KindOpEnd {
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
	cases := []struct {
		name   string
		events []Event
	}{
		{"empty", nil},
		{"no begin", []Event{{Kind: KindInstr}, {Kind: KindTxnEnd}}},
		{"no end", []Event{{Kind: KindTxnBegin}, {Kind: KindInstr}}},
		{"nested op", []Event{
			{Kind: KindTxnBegin},
			{Kind: KindOpBegin, Op: OpIndexProbe},
			{Kind: KindOpBegin, Op: OpIndexScan},
			{Kind: KindOpEnd, Op: OpIndexScan},
			{Kind: KindOpEnd, Op: OpIndexProbe},
			{Kind: KindTxnEnd},
		}},
		{"mismatched op end", []Event{
			{Kind: KindTxnBegin},
			{Kind: KindOpBegin, Op: OpIndexProbe},
			{Kind: KindOpEnd, Op: OpIndexScan},
			{Kind: KindTxnEnd},
		}},
		{"open op at end", []Event{
			{Kind: KindTxnBegin},
			{Kind: KindOpBegin, Op: OpIndexProbe},
			{Kind: KindTxnEnd},
		}},
		{"unaligned address", []Event{
			{Kind: KindTxnBegin},
			{Kind: KindInstr, Addr: 0x401},
			{Kind: KindTxnEnd},
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
					t.Errorf("strict buffer did not panic on %q", c.name)
				}
			}()
			c.f(NewBuffer(true))
		})
	}
}

func TestBufferLenientIgnores(t *testing.T) {
	b := NewBuffer(false)
	b.TxnEnd() // ignored
	b.OpBegin(OpIndexProbe)
	b.Instr(0x400000) // outside txn: dropped
	b.TxnBegin(1, "x")
	b.Instr(0x400040)
	b.TxnEnd()
	traces := b.Take()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	if got := traces[0].InstrBlocks(); got != 1 {
		t.Errorf("InstrBlocks = %d, want 1 (pre-txn events must be dropped)", got)
	}
}

func TestBufferAlignsAddresses(t *testing.T) {
	b := NewBuffer(true)
	b.TxnBegin(0, "t")
	b.Instr(0x400013)
	b.Data(0x10000077, true)
	b.TxnEnd()
	tr := b.Take()[0]
	if tr.Events[1].Addr != 0x400000 {
		t.Errorf("instr addr = %#x, want %#x", tr.Events[1].Addr, 0x400000)
	}
	if tr.Events[2].Addr != 0x10000040 {
		t.Errorf("data addr = %#x, want %#x", tr.Events[2].Addr, 0x10000040)
	}
}

func TestSetByTypeAndSlice(t *testing.T) {
	s := &Set{
		Workload:  "TPC-X",
		TypeNames: []string{"A", "B"},
		Traces: []*Trace{
			mkTrace(0, []OpType{OpIndexProbe}, 1),
			mkTrace(1, []OpType{OpIndexProbe}, 1),
			mkTrace(0, []OpType{OpIndexProbe}, 1),
		},
	}
	byType := s.ByType()
	if !reflect.DeepEqual(byType[0], []int{0, 2}) {
		t.Errorf("ByType[0] = %v, want [0 2]", byType[0])
	}
	if !reflect.DeepEqual(byType[1], []int{1}) {
		t.Errorf("ByType[1] = %v, want [1]", byType[1])
	}
	sub := s.Slice(1, 3)
	if len(sub.Traces) != 2 || sub.Workload != "TPC-X" {
		t.Errorf("Slice: got %d traces, workload %q", len(sub.Traces), sub.Workload)
	}
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

func TestCodecRejectsGarbage(t *testing.T) {
	if _, err := ReadSet(bytes.NewReader([]byte("NOPE    "))); err == nil {
		t.Error("ReadSet accepted bad magic")
	}
	if _, err := ReadSet(bytes.NewReader(nil)); err == nil {
		t.Error("ReadSet accepted empty input")
	}
	// Truncated valid stream.
	s := &Set{Workload: "w", TypeNames: []string{"t"}, Traces: []*Trace{mkTrace(0, []OpType{OpIndexProbe}, 4)}}
	var buf bytes.Buffer
	if err := WriteSet(&buf, s); err != nil {
		t.Fatalf("WriteSet: %v", err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadSet(bytes.NewReader(trunc)); err == nil {
		t.Error("ReadSet accepted truncated stream")
	}
}

// TestCodecRoundtripProperty uses testing/quick to exercise the codec with
// randomized event contents.
func TestCodecRoundtripProperty(t *testing.T) {
	f := func(seed int64, nEvents uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := &Trace{Type: TxnType(rng.Intn(16)), TypeName: "q"}
		tr.Events = append(tr.Events, Event{Kind: KindTxnBegin, Aux: uint16(tr.Type)})
		for i := 0; i < int(nEvents); i++ {
			tr.Events = append(tr.Events, Event{
				Kind: EventKind(rng.Intn(3)), // memory kinds only
				Addr: uint64(rng.Int63()) &^ (BlockSize - 1),
			})
		}
		tr.Events = append(tr.Events, Event{Kind: KindTxnEnd})
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

func TestDiscardIsNoop(t *testing.T) {
	var d Discard
	d.TxnBegin(0, "x")
	d.OpBegin(OpIndexProbe)
	d.Instr(0x1000)
	d.InstrRange(0x1000, 8)
	d.Data(0x2000, true)
	d.OpEnd(OpIndexProbe)
	d.TxnEnd()
	// Nothing to assert beyond "does not panic"; Discard has no state.
}
