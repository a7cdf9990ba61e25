package trace

import (
	"bytes"
	"encoding/binary"
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
		tr.Events = append(tr.Events, Event{Kind: KindTxnBegin, Aux: uint16(tr.Type)})
		var next uint64
		for i := 0; i < int(nEvents); i++ {
			e := Event{Kind: KindInstr, Addr: next}
			if rng.Intn(64) == 0 {
				e = Event{
					Kind: EventKind(rng.Intn(3)), // memory kinds only
					Addr: uint64(rng.Int63()) &^ (BlockSize - 1),
				}
			}
			if e.Kind == KindInstr {
				next = e.Addr + BlockSize
			}
			tr.Events = append(tr.Events, e)
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
