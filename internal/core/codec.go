package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"addict/internal/trace"
)

// Profile serialization — the "static" deployment of Step 1: "Step 1 of
// ADDICT can be static and performed a priori as well. In this case, ADDICT
// would migrate transactions over the dedicated cores as soon as the real
// workload run starts" (Section 3.1.3). A profile saved from a profiling
// run is reloaded at serving time with no ramp-up.
//
// Format (little-endian):
//
//	magic "ADPF" | version u16 | workload string | l1iSize u32 | l1iWays u16
//	txn count u16, then per txn:
//	  type u16 | name string | instances u32 | op count u16, per op:
//	    op u8 | seqCount u32 | instances u32 | alternatives u32
//	    seq len u16 | seq addrs u64...
//
// Strings are u16 length + bytes. Op order is preserved.

const (
	profileMagic   = "ADPF"
	profileVersion = 1
)

// WriteProfile serializes a profile to w.
func WriteProfile(w io.Writer, p *Profile) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(profileMagic); err != nil {
		return err
	}
	le := binary.LittleEndian
	write := func(v interface{}) error { return binary.Write(bw, le, v) }
	if err := write(uint16(profileVersion)); err != nil {
		return err
	}
	if err := writeStr(bw, p.Workload); err != nil {
		return err
	}
	if err := write(uint32(p.Config.L1I.SizeBytes)); err != nil {
		return err
	}
	if err := write(uint16(p.Config.L1I.Ways)); err != nil {
		return err
	}
	types := p.SortedTypes()
	if err := write(uint16(len(types))); err != nil {
		return err
	}
	for _, tt := range types {
		tp := p.Txns[tt]
		if err := write(uint16(tt)); err != nil {
			return err
		}
		if err := writeStr(bw, tp.Name); err != nil {
			return err
		}
		if err := write(uint32(tp.Instances)); err != nil {
			return err
		}
		if err := write(uint16(len(tp.OpOrder))); err != nil {
			return err
		}
		for _, op := range tp.OpOrder {
			o := tp.Ops[op]
			if err := write(uint8(op)); err != nil {
				return err
			}
			if err := write(uint32(o.SeqCount)); err != nil {
				return err
			}
			if err := write(uint32(o.Instances)); err != nil {
				return err
			}
			if err := write(uint32(o.Alternatives)); err != nil {
				return err
			}
			if err := write(uint16(len(o.Seq))); err != nil {
				return err
			}
			for _, a := range o.Seq {
				if err := write(a); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// ReadProfile deserializes a profile written by WriteProfile. The NoMigrate
// filter is not persisted (it only affects profiling, which already
// happened). It accepts only the canonical encoding WriteProfile produces —
// transaction types in ascending order, each operation once per type, no
// trailing bytes — so every accepted input re-encodes to itself.
func ReadProfile(r io.Reader) (*Profile, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading profile magic: %w", err)
	}
	if string(magic) != profileMagic {
		return nil, fmt.Errorf("core: bad profile magic %q", magic)
	}
	le := binary.LittleEndian
	read := func(v interface{}) error { return binary.Read(br, le, v) }
	var version uint16
	if err := read(&version); err != nil {
		return nil, err
	}
	if version != profileVersion {
		return nil, fmt.Errorf("core: unsupported profile version %d", version)
	}
	p := &Profile{Txns: make(map[trace.TxnType]*TxnProfile)}
	var err error
	if p.Workload, err = readStr(br); err != nil {
		return nil, err
	}
	var l1iSize uint32
	var l1iWays uint16
	if err := read(&l1iSize); err != nil {
		return nil, err
	}
	if err := read(&l1iWays); err != nil {
		return nil, err
	}
	p.Config.L1I.SizeBytes = int(l1iSize)
	p.Config.L1I.Ways = int(l1iWays)
	p.Config.L1I.Name = "L1-I"
	var nTypes uint16
	if err := read(&nTypes); err != nil {
		return nil, err
	}
	var prevType trace.TxnType
	for i := 0; i < int(nTypes); i++ {
		var tt uint16
		if err := read(&tt); err != nil {
			return nil, err
		}
		if i > 0 && trace.TxnType(tt) <= prevType {
			return nil, fmt.Errorf("core: profile transaction type %d out of order after %d", tt, prevType)
		}
		prevType = trace.TxnType(tt)
		tp := &TxnProfile{Type: trace.TxnType(tt), Ops: make(map[trace.OpType]*OpProfile)}
		if tp.Name, err = readStr(br); err != nil {
			return nil, err
		}
		var inst uint32
		if err := read(&inst); err != nil {
			return nil, err
		}
		tp.Instances = int(inst)
		var nOps uint16
		if err := read(&nOps); err != nil {
			return nil, err
		}
		for j := 0; j < int(nOps); j++ {
			var op uint8
			if err := read(&op); err != nil {
				return nil, err
			}
			o := &OpProfile{Op: trace.OpType(op)}
			if _, dup := tp.Ops[o.Op]; dup {
				return nil, fmt.Errorf("core: profile repeats operation %v of transaction %q", o.Op, tp.Name)
			}
			var sc, in, alt uint32
			if err := read(&sc); err != nil {
				return nil, err
			}
			if err := read(&in); err != nil {
				return nil, err
			}
			if err := read(&alt); err != nil {
				return nil, err
			}
			o.SeqCount, o.Instances, o.Alternatives = int(sc), int(in), int(alt)
			var nSeq uint16
			if err := read(&nSeq); err != nil {
				return nil, err
			}
			o.Seq = make([]uint64, nSeq)
			for k := range o.Seq {
				if err := read(&o.Seq[k]); err != nil {
					return nil, err
				}
			}
			tp.Ops[o.Op] = o
			tp.OpOrder = append(tp.OpOrder, o.Op)
		}
		p.Txns[tp.Type] = tp
	}
	if _, err := br.ReadByte(); err != io.EOF {
		if err == nil {
			err = fmt.Errorf("core: trailing data after profile")
		}
		return nil, err
	}
	return p, nil
}

// Equal compares two profiles structurally (for round-trip tests and
// profile-drift detection between profiling runs).
func (p *Profile) Equal(q *Profile) bool {
	if p.Workload != q.Workload || len(p.Txns) != len(q.Txns) {
		return false
	}
	for tt, tp := range p.Txns {
		tq, ok := q.Txns[tt]
		if !ok || tp.Name != tq.Name || tp.Instances != tq.Instances {
			return false
		}
		if len(tp.OpOrder) != len(tq.OpOrder) {
			return false
		}
		for i := range tp.OpOrder {
			if tp.OpOrder[i] != tq.OpOrder[i] {
				return false
			}
		}
		for op, o := range tp.Ops {
			oq, ok := tq.Ops[op]
			if !ok || o.SeqCount != oq.SeqCount || o.Instances != oq.Instances ||
				o.Alternatives != oq.Alternatives || !SeqEqual(o.Seq, oq.Seq) {
				return false
			}
		}
	}
	return true
}

// Diff reports (txn, op) pairs whose chosen sequences differ between two
// profiles — profile drift across profiling runs or software versions.
func (p *Profile) Diff(q *Profile) []string {
	var out []string
	for tt, tp := range p.Txns {
		tq, ok := q.Txns[tt]
		if !ok {
			out = append(out, fmt.Sprintf("%s: missing in other profile", tp.Name))
			continue
		}
		for op, o := range tp.Ops {
			oq, ok := tq.Ops[op]
			if !ok {
				out = append(out, fmt.Sprintf("%s/%s: missing in other profile", tp.Name, op))
				continue
			}
			if !SeqEqual(o.Seq, oq.Seq) {
				out = append(out, fmt.Sprintf("%s/%s: %d vs %d points", tp.Name, op, len(o.Seq), len(oq.Seq)))
			}
		}
	}
	sort.Strings(out)
	return out
}

func writeStr(w io.Writer, s string) error {
	if len(s) > 0xffff {
		return fmt.Errorf("core: string too long")
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readStr(r io.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}
