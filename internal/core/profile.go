package core

import (
	"fmt"
	"sort"
	"strings"

	"addict/internal/cache"
	"addict/internal/trace"
)

// ProfileConfig parameterizes Algorithm 1.
type ProfileConfig struct {
	// L1I is the instruction-cache geometry that defines "cache-sized
	// actions" (Table 1: 32KB, 8-way).
	L1I cache.Config
	// NoMigrate, when non-nil, reports addresses where migration points
	// must not be placed (short critical sections — Section 3.1.3). An
	// eviction inside such a routine is deferred: the point is placed at
	// the next eviction outside it.
	NoMigrate func(addr uint64) bool
}

// DefaultProfileConfig returns the Table 1 L1-I geometry with no
// no-migrate filter.
func DefaultProfileConfig() ProfileConfig {
	return ProfileConfig{L1I: cache.Config{SizeBytes: 32 << 10, Ways: 8, Name: "L1-I"}}
}

// OpProfile is the profiling result for one (transaction type, operation):
// the winning migration-point sequence and its support.
type OpProfile struct {
	// Op is the database operation.
	Op trace.OpType
	// Seq is the chosen migration-point sequence (instruction block
	// addresses, in execution order). Empty means the operation fits the
	// L1-I and migrates only at its entry.
	Seq []uint64
	// SeqCount is how many op instances produced exactly Seq.
	SeqCount int
	// Instances is the total op instances observed for this transaction
	// type.
	Instances int
	// Alternatives is the number of distinct sequences observed.
	Alternatives int
}

// Support returns SeqCount/Instances — how representative the winning
// sequence is (Figure 4's stability is the trace-replay version of this).
func (o *OpProfile) Support() float64 {
	if o.Instances == 0 {
		return 0
	}
	return float64(o.SeqCount) / float64(o.Instances)
}

// TxnProfile is the migration-point profile of one transaction type.
type TxnProfile struct {
	// Type and Name identify the transaction type.
	Type trace.TxnType
	Name string
	// Instances is the number of traces of this type profiled.
	Instances int
	// Ops holds the per-operation profiles, keyed by operation.
	Ops map[trace.OpType]*OpProfile
	// OpOrder lists operations by first appearance (Algorithm 2 assigns
	// cores in this order).
	OpOrder []trace.OpType
}

// Profile is Algorithm 1's output for a workload.
type Profile struct {
	// Workload is the benchmark name.
	Workload string
	// Txns maps transaction types to their profiles.
	Txns map[trace.TxnType]*TxnProfile
	// Config echoes the profiling parameters.
	Config ProfileConfig
}

// seqKey encodes an address sequence as a map key.
func seqKey(seq []uint64) string {
	var sb strings.Builder
	for _, a := range seq {
		fmt.Fprintf(&sb, "%x ", a)
	}
	return sb.String()
}

// profiler runs Algorithm 1's cache simulation over traces.
type profiler struct {
	cfg ProfileConfig
	l1i *cache.Cache
	// counts[xct][op][seqKey] = occurrences; firstSeen breaks ties
	// deterministically (the paper picks randomly among ties; a stable
	// choice keeps runs reproducible).
	counts    map[trace.TxnType]map[trace.OpType]map[string]*seqStat
	instances map[trace.TxnType]int
	opOrder   map[trace.TxnType][]trace.OpType
	names     map[trace.TxnType]string
	arrival   int // global arrival counter: unique first-seen indices
}

type seqStat struct {
	seq   []uint64
	count int
	first int // global arrival index for deterministic tie-breaking
}

func newProfiler(cfg ProfileConfig) *profiler {
	return &profiler{
		cfg:       cfg,
		l1i:       cache.New(cfg.L1I),
		counts:    make(map[trace.TxnType]map[trace.OpType]map[string]*seqStat),
		instances: make(map[trace.TxnType]int),
		opOrder:   make(map[trace.TxnType][]trace.OpType),
		names:     make(map[trace.TxnType]string),
	}
}

// addTrace folds one transaction trace into the profile (Algorithm 1 lines
// 2-16): the L1-I is emptied at transaction and operation boundaries and
// after every eviction-causing fetch, whose address joins the candidate
// sequence.
func (p *profiler) addTrace(t *trace.Trace) {
	xct := t.Type
	p.names[xct] = t.TypeName
	p.instances[xct]++
	if _, ok := p.counts[xct]; !ok {
		p.counts[xct] = make(map[trace.OpType]map[string]*seqStat)
	}
	var curOp trace.OpType
	inOp := false
	var seq []uint64

	for _, ev := range t.Events {
		switch ev.Kind() {
		case trace.KindTxnBegin, trace.KindTxnEnd:
			p.l1i.Flush()
		case trace.KindOpBegin:
			p.l1i.Flush()
			curOp = ev.Op()
			inOp = true
			seq = seq[:0]
			if _, seen := p.counts[xct][curOp]; !seen {
				p.counts[xct][curOp] = make(map[string]*seqStat)
				p.opOrder[xct] = append(p.opOrder[xct], curOp)
			}
		case trace.KindOpEnd:
			if !inOp {
				continue
			}
			key := seqKey(seq)
			bucket := p.counts[xct][curOp]
			st, ok := bucket[key]
			if !ok {
				st = &seqStat{seq: append([]uint64(nil), seq...), first: p.arrival}
				bucket[key] = st
			}
			st.count++
			p.arrival++
			p.l1i.Flush()
			inOp = false
		case trace.KindInstr:
			if !inOp {
				// Transaction glue outside operations warms the cache but
				// never creates migration points (Algorithm 1 records per
				// operation).
				p.l1i.Access(ev.Addr())
				continue
			}
			res := p.l1i.Access(ev.Addr())
			if res.Victim {
				if p.cfg.NoMigrate != nil && p.cfg.NoMigrate(ev.Addr()) {
					// Deferred: tolerate the eviction, keep filling; the
					// next eviction outside the zone becomes the point.
					continue
				}
				p.l1i.Flush()
				p.l1i.Access(ev.Addr()) // the triggering block starts the next action
				seq = append(seq, ev.Addr())
			}
		}
	}
}

// finish selects the most frequent sequence per (xct, op) — Algorithm 1
// line 17.
func (p *profiler) finish(workload string) *Profile {
	prof := &Profile{Workload: workload, Txns: make(map[trace.TxnType]*TxnProfile), Config: p.cfg}
	for xct, ops := range p.counts {
		tp := &TxnProfile{
			Type:      xct,
			Name:      p.names[xct],
			Instances: p.instances[xct],
			Ops:       make(map[trace.OpType]*OpProfile),
			OpOrder:   p.opOrder[xct],
		}
		for op, bucket := range ops {
			best := (*seqStat)(nil)
			total := 0
			for _, st := range bucket {
				total += st.count
				if best == nil || st.count > best.count ||
					(st.count == best.count && st.first < best.first) {
					best = st
				}
			}
			tp.Ops[op] = &OpProfile{
				Op:           op,
				Seq:          best.seq,
				SeqCount:     best.count,
				Instances:    total,
				Alternatives: len(bucket),
			}
		}
		prof.Txns[xct] = tp
	}
	return prof
}

// FindMigrationPoints runs Algorithm 1 over a set of profiling traces (the
// paper uses the first 1000 traces of each workload, Section 4.1).
func FindMigrationPoints(s *trace.Set, cfg ProfileConfig) *Profile {
	p := newProfiler(cfg)
	for _, t := range s.Traces {
		p.addTrace(t)
	}
	return p.finish(s.Workload)
}

// OpSequences extracts the eviction sequences of every operation instance
// in a single trace, using the same cache simulation as profiling — the
// unit of Figure 4's stability check.
func OpSequences(t *trace.Trace, cfg ProfileConfig) []InstanceSeq {
	var out []InstanceSeq
	l1i := cache.New(cfg.L1I)
	var curOp trace.OpType
	inOp := false
	var seq []uint64
	for _, ev := range t.Events {
		switch ev.Kind() {
		case trace.KindTxnBegin, trace.KindTxnEnd:
			l1i.Flush()
		case trace.KindOpBegin:
			l1i.Flush()
			curOp, inOp = ev.Op(), true
			seq = nil
		case trace.KindOpEnd:
			if inOp {
				out = append(out, InstanceSeq{Op: curOp, Seq: seq})
				inOp = false
				l1i.Flush()
			}
		case trace.KindInstr:
			res := l1i.Access(ev.Addr())
			if inOp && res.Victim {
				if cfg.NoMigrate != nil && cfg.NoMigrate(ev.Addr()) {
					continue
				}
				l1i.Flush()
				l1i.Access(ev.Addr())
				seq = append(seq, ev.Addr())
			}
		}
	}
	return out
}

// InstanceSeq is one operation instance's eviction sequence.
type InstanceSeq struct {
	Op  trace.OpType
	Seq []uint64
}

// SeqEqual compares two migration-point sequences.
func SeqEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SortedTypes returns the profiled transaction types in ascending order
// (deterministic iteration for reports and assignment).
func (p *Profile) SortedTypes() []trace.TxnType {
	out := make([]trace.TxnType, 0, len(p.Txns))
	for tt := range p.Txns {
		out = append(out, tt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
