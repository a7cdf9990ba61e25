package trace

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzSeedSet builds a small but representative set for the fuzz corpus:
// two transaction types, operation brackets, all event kinds, extreme
// addresses.
func fuzzSeedSet() *Set {
	return &Set{
		Workload:  "TPC-X",
		TypeNames: []string{"Alpha", "Beta"},
		Traces: []*Trace{
			{
				Type:     0,
				TypeName: "Alpha",
				Events: []Event{
					{Kind: KindTxnBegin, Aux: 0},
					{Kind: KindOpBegin, Op: OpIndexProbe},
					{Kind: KindInstr, Addr: 0x1000},
					{Kind: KindDataRead, Addr: 0xffffffffffffffc0},
					{Kind: KindOpEnd, Op: OpIndexProbe},
					{Kind: KindTxnEnd},
				},
			},
			{
				Type:     1,
				TypeName: "Beta",
				Events: []Event{
					{Kind: KindTxnBegin, Aux: 1},
					{Kind: KindDataWrite, Addr: 0},
					{Kind: KindTxnEnd},
				},
			},
		},
	}
}

// setsEqual compares two sets structurally (DeepEqual would distinguish
// nil and empty slices, which the codec does not).
func setsEqual(a, b *Set) bool {
	if a.Workload != b.Workload || len(a.TypeNames) != len(b.TypeNames) || len(a.Traces) != len(b.Traces) {
		return false
	}
	for i := range a.TypeNames {
		if a.TypeNames[i] != b.TypeNames[i] {
			return false
		}
	}
	for i := range a.Traces {
		at, bt := a.Traces[i], b.Traces[i]
		if at.Type != bt.Type || at.TypeName != bt.TypeName || len(at.Events) != len(bt.Events) {
			return false
		}
		for j := range at.Events {
			if at.Events[j] != bt.Events[j] {
				return false
			}
		}
	}
	return true
}

// synthSet derives a set deterministically from raw fuzz bytes: a
// workload name, up to two type names, and one trace whose events are the
// remaining bytes chopped into 12-byte records — any field values, valid
// or not, must survive the codec unchanged (the codec persists, it does
// not validate).
func synthSet(data []byte) *Set {
	take := func(n int) []byte {
		if n > len(data) {
			n = len(data)
		}
		h := data[:n]
		data = data[n:]
		return h
	}
	s := &Set{Workload: string(take(8))}
	for i := 0; i < 2 && len(data) > 0; i++ {
		s.TypeNames = append(s.TypeNames, string(take(4)))
	}
	tr := &Trace{TypeName: "synth"}
	if b := take(2); len(b) == 2 {
		tr.Type = TxnType(binary.LittleEndian.Uint16(b))
	}
	for len(data) >= 12 {
		rec := take(12)
		tr.Events = append(tr.Events, Event{
			Kind: EventKind(rec[0]),
			Op:   OpType(rec[1]),
			Aux:  binary.LittleEndian.Uint16(rec[2:]),
			Addr: binary.LittleEndian.Uint64(rec[4:]),
		})
	}
	s.Traces = append(s.Traces, tr)
	return s
}

// oneTrace is a set header for one unnamed trace that declares n events,
// followed by the given record bytes.
func oneTrace(n uint32, records ...byte) []byte {
	b := append([]byte(codecMagic), codecVersion, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0)
	b = binary.LittleEndian.AppendUint32(b, n)
	return append(b, records...)
}

// FuzzEventCodec is the round-trip fuzz target for the binary trace
// format. Two properties hold for every input:
//
//  1. Arbitrary bytes never panic the decoder, and any bytes it does
//     accept decode → encode → decode to the same set, with byte-identical
//     re-encoding (the format has one canonical serialization).
//  2. Any set synthesized from the bytes (arbitrary field values) survives
//     encode → decode unchanged.
//
// CI runs this briefly on every push (see the fuzz-smoke step); longer
// local runs: go test ./internal/trace -fuzz=FuzzEventCodec.
func FuzzEventCodec(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteSet(&seed, fuzzSeedSet()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte("ADCT"))
	// Header claiming 4 billion traces: must fail cleanly, not OOM.
	hostile := append([]byte("ADCT"), codecVersion, 0, 0, 0, 0, 0)
	hostile = append(hostile, 0xff, 0xff, 0xff, 0xff)
	f.Add(hostile)
	f.Add(bytes.Repeat([]byte{0x42}, 64))
	// Hostile records, each of which must be an error: a run opening the
	// trace, a run past the declared event count, an unknown tag.
	f.Add(oneTrace(2, recRun, 2))
	f.Add(oneTrace(3, recInstr, 0, recRun, 5))
	f.Add(oneTrace(1, 0x7f, recInstr, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := ReadSet(bytes.NewReader(data)); err == nil {
			var enc bytes.Buffer
			if err := WriteSet(&enc, s); err != nil {
				t.Fatalf("re-encoding a decoded set failed: %v", err)
			}
			s2, err := ReadSet(bytes.NewReader(enc.Bytes()))
			if err != nil {
				t.Fatalf("re-decoding failed: %v", err)
			}
			if !setsEqual(s, s2) {
				t.Fatalf("decode→encode→decode changed the set")
			}
			var enc2 bytes.Buffer
			if err := WriteSet(&enc2, s2); err != nil {
				t.Fatalf("second encode failed: %v", err)
			}
			if !bytes.Equal(enc.Bytes(), enc2.Bytes()) {
				t.Fatalf("re-encoding is not canonical")
			}
		}

		s := synthSet(data)
		var enc bytes.Buffer
		if err := WriteSet(&enc, s); err != nil {
			t.Fatalf("encoding synthesized set: %v", err)
		}
		got, err := ReadSet(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("decoding synthesized set: %v", err)
		}
		if !setsEqual(s, got) {
			t.Fatalf("synthesized set did not round-trip")
		}
	})
}
