package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary trace format, used by cmd/tracegen and the artifact store to
// persist trace sets.
//
//	header:  magic "ADCT" | version u16 | workload string | type names
//	traces:  count u32, then per trace: type u16 | name string | events
//	events:  count u32, then records until count events are decoded
//
// Strings are u16 length + bytes, name lists a u16 count + strings, and
// fixed-width integers are little-endian. Every record is a tag byte and a
// body:
//
//	recInstr    zigzag varint (addr − next) / 64: one instruction block
//	recRun      u8 k in 1..255: k more instruction blocks, each 64 bytes on
//	recRead,
//	recWrite    zigzag varint (addr − previous data block) / 64
//	recLiteral  kind u8 | op u8 | aux u16 | addr u64: one marker
//
// next is the block after the previous instruction. Both delta bases start
// at zero in every trace. Memory events take the delta records and markers
// take literals, which leave the delta state alone. A literal must hold a
// marker with a zero address: a memory event in a literal would not
// re-encode to the same bytes, so the decoder rejects it, and it rejects a
// kind the packed Event cannot hold (see NewEvent). A run continues an
// instruction, so it never opens a trace and never follows a data access or
// literal. The encoding is a function of the events (one canonical byte
// string per set), and since a record of at least two bytes yields at most
// 255 events, the decoded size is bounded by a fixed multiple of the input.
//
// Storage-manager traces fetch the next instruction block about 97% of the
// time, so a TPC-C window encodes to about 0.25 bytes per event. Version 1
// streams (a fixed 12-byte record per event) no longer decode.

const (
	codecMagic   = "ADCT"
	codecVersion = 2
)

// Record tags.
const (
	recInstr byte = iota
	recRun
	recRead
	recWrite
	recLiteral
)

// maxRun is the most events one recRun record yields.
const maxRun = math.MaxUint8

// maxPrealloc caps how many trace/event slots the decoder allocates ahead
// of the input actually delivering them. Counts are attacker-controlled
// 32-bit fields; without a cap a 12-byte header could demand a
// multi-gigabyte upfront allocation (found by FuzzEventCodec). The
// remaining input bounds the reservation too, so a short input reserves
// little; the cap bounds what a false count near the start of a large one
// can reserve (8 MiB of events). Beyond it the slices grow by append.
const maxPrealloc = 1 << 20

// WriteSet serializes a trace set to w in a single Write.
func WriteSet(w io.Writer, s *Set) error {
	size := 64
	for _, t := range s.Traces {
		size += 16 + len(t.TypeName) + len(t.Events)/2
	}
	b, err := appendSet(make([]byte, 0, size), s)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ReadSet deserializes a trace set from r, which must hold exactly one set.
func ReadSet(r io.Reader) (*Set, error) {
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, fmt.Errorf("trace: reading: %w", err)
	}
	return decodeSet(buf.Bytes())
}

func appendSet(b []byte, s *Set) ([]byte, error) {
	if len(s.TypeNames) > math.MaxUint16 {
		return nil, fmt.Errorf("trace: too many type names (%d)", len(s.TypeNames))
	}
	if uint64(len(s.Traces)) > math.MaxUint32 {
		return nil, fmt.Errorf("trace: too many traces (%d)", len(s.Traces))
	}
	b = append(b, codecMagic...)
	b = binary.LittleEndian.AppendUint16(b, codecVersion)
	b, err := appendString(b, s.Workload)
	if err != nil {
		return nil, err
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s.TypeNames)))
	for _, n := range s.TypeNames {
		if b, err = appendString(b, n); err != nil {
			return nil, err
		}
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Traces)))
	for _, t := range s.Traces {
		if b, err = appendTrace(b, t); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func appendTrace(b []byte, t *Trace) ([]byte, error) {
	if uint64(len(t.Events)) > math.MaxUint32 {
		return nil, fmt.Errorf("trace: too many events (%d)", len(t.Events))
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(t.Type))
	b, err := appendString(b, t.TypeName)
	if err != nil {
		return nil, err
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(t.Events)))
	var next, prevData uint64
	inInstr := false // the previous event took recInstr or recRun
	run := -1        // offset of the open recRun's count byte
	for _, e := range t.Events {
		addr := e.Addr()
		switch {
		case !e.IsMemory():
			b = append(b, recLiteral, byte(e.Kind()), byte(e.Op()))
			b = binary.LittleEndian.AppendUint16(b, e.Aux())
			b = binary.LittleEndian.AppendUint64(b, addr)
			inInstr = false
		case e.Kind() == KindInstr:
			switch {
			case inInstr && addr == next && run >= 0 && b[run] < maxRun:
				b[run]++
			case inInstr && addr == next:
				b = append(b, recRun, 1)
				run = len(b) - 1
			default:
				b = append(b, recInstr)
				b = binary.AppendVarint(b, int64(addr-next)>>BlockShift)
				run = -1
			}
			next = addr + BlockSize
			inInstr = true
		default:
			tag := recRead
			if e.Kind() == KindDataWrite {
				tag = recWrite
			}
			b = append(b, tag)
			b = binary.AppendVarint(b, int64(addr-prevData)>>BlockShift)
			prevData = addr
			inInstr = false
		}
	}
	return b, nil
}

func appendString(b []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint16 {
		return nil, fmt.Errorf("trace: string too long (%d bytes)", len(s))
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...), nil
}

// decoder reads fields off a byte slice. The first short read or bad
// varint sets err; later reads return zero values.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b) < n {
		d.err = io.ErrUnexpectedEOF
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *decoder) u8() byte {
	if p := d.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *decoder) u16() uint16 {
	if p := d.take(2); p != nil {
		return binary.LittleEndian.Uint16(p)
	}
	return 0
}

func (d *decoder) u32() uint32 {
	if p := d.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (d *decoder) str() string { return string(d.take(int(d.u16()))) }

// blockDelta reads a zigzag varint and scales it back to a byte delta.
func (d *decoder) blockDelta() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.err = io.ErrUnexpectedEOF
		if n < 0 {
			d.err = fmt.Errorf("varint overflows 64 bits")
		}
		return 0
	}
	d.b = d.b[n:]
	return uint64(v << BlockShift)
}

func decodeSet(data []byte) (*Set, error) {
	d := &decoder{b: data}
	magic := d.take(len(codecMagic))
	if d.err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", d.err)
	}
	if string(magic) != codecMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	if version := d.u16(); d.err == nil && version != codecVersion {
		return nil, fmt.Errorf("trace: unsupported version %d (this build reads version %d; regenerate the file)", version, codecVersion)
	}
	s := &Set{Workload: d.str()}
	nNames := int(d.u16())
	s.TypeNames = make([]string, 0, min(nNames, len(d.b)/2))
	for range nNames {
		s.TypeNames = append(s.TypeNames, d.str())
	}
	nTraces := d.u32()
	if d.err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", d.err)
	}
	// A trace header takes at least 8 bytes. The cap is compared as
	// uint32: on 32-bit platforms int(nTraces) could overflow negative and
	// panic the very make it protects.
	s.Traces = make([]*Trace, 0, int(min(nTraces, maxPrealloc, uint32(len(d.b)/8))))
	for i := uint32(0); i < nTraces; i++ {
		t, err := d.trace()
		if err != nil {
			return nil, fmt.Errorf("trace: reading trace %d: %w", i, err)
		}
		s.Traces = append(s.Traces, t)
	}
	if len(d.b) > 0 {
		return nil, fmt.Errorf("trace: %d trailing bytes after the set", len(d.b))
	}
	return s, nil
}

func (d *decoder) trace() (*Trace, error) {
	t := &Trace{Type: TxnType(d.u16()), TypeName: d.str()}
	n := d.u32()
	if d.err != nil {
		return nil, d.err
	}
	// Records take at least two bytes and yield at most maxRun events, so
	// the remaining input bounds the count worth preallocating.
	ev := make([]Event, 0, int(min(uint64(n), maxPrealloc, uint64(len(d.b))/2*maxRun)))
	var next, prevData uint64
	inInstr := false
	for uint64(len(ev)) < uint64(n) {
		switch tag := d.u8(); tag {
		case recInstr:
			a := next + d.blockDelta()
			ev = append(ev, MemEvent(KindInstr, a))
			next = a + BlockSize
			inInstr = true
		case recRun:
			k := int(d.u8())
			switch {
			case d.err != nil:
			case !inInstr:
				return nil, fmt.Errorf("event %d: run record does not follow an instruction", len(ev))
			case k == 0:
				return nil, fmt.Errorf("event %d: empty run record", len(ev))
			case uint64(len(ev)+k) > uint64(n):
				return nil, fmt.Errorf("event %d: run of %d passes the declared %d events", len(ev), k, n)
			}
			for ; k > 0; k-- {
				ev = append(ev, MemEvent(KindInstr, next))
				next += BlockSize
			}
		case recRead, recWrite:
			kind := KindDataRead
			if tag == recWrite {
				kind = KindDataWrite
			}
			prevData += d.blockDelta()
			ev = append(ev, MemEvent(kind, prevData))
			inInstr = false
		case recLiteral:
			if p := d.take(12); p != nil {
				kind := EventKind(p[0])
				if kind <= KindDataWrite {
					return nil, fmt.Errorf("event %d: literal record holds a %v memory event", len(ev), kind)
				}
				e, err := NewEvent(kind, OpType(p[1]), binary.LittleEndian.Uint16(p[2:]), binary.LittleEndian.Uint64(p[4:]))
				if err != nil {
					return nil, fmt.Errorf("event %d: %w", len(ev), err)
				}
				ev = append(ev, e)
			}
			inInstr = false
		default:
			if d.err == nil {
				return nil, fmt.Errorf("event %d: unknown record tag %#x", len(ev), tag)
			}
		}
		if d.err != nil {
			return nil, d.err
		}
	}
	t.Events = ev
	return t, nil
}
