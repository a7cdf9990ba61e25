// Package workload implements the three TPC OLTP benchmarks the paper
// characterizes and evaluates (Section 4.1): TPC-B, TPC-C, and TPC-E, as
// deterministic trace generators over the storage manager.
//
// Schemas and transaction logic follow the TPC specifications, scaled to
// laptop-sized populations (DESIGN.md Section 2 explains why the sparse data
// address space preserves the paper's ≤6% data overlap despite the smaller
// physical dataset). Transaction mixes match the specs: TPC-B's single
// AccountUpdate; TPC-C's 45/43/4/4/4 NewOrder/Payment/OrderStatus/Delivery/
// StockLevel; TPC-E's 10-type, ~77% read-only mix with TradeStatus at 19%.
package workload

import (
	"fmt"
	"math/rand"

	"addict/internal/storage"
	"addict/internal/trace"
)

// Benchmark is a populated workload that generates one transaction trace at
// a time.
type Benchmark struct {
	name  string
	m     *storage.Manager
	rng   *rand.Rand
	types []TxnSpec
	cum   []float64
}

// TxnSpec declares one transaction type of a benchmark's mix.
type TxnSpec struct {
	// Name is the transaction's spec name (e.g. "NewOrder").
	Name string
	// Weight is the mix fraction (all weights in a benchmark sum to ~1).
	Weight float64
	// Run executes the transaction's operations inside an open storage
	// transaction.
	Run func(txn *storage.Txn)
}

// NewCustom assembles a benchmark from user-supplied transaction specs over
// an already-populated storage manager — the hook for workloads beyond the
// three TPC benchmarks (the paper's conclusion: "ADDICT can benefit any
// application that ... [has] concurrent requests executing a series of
// actions from a predefined set"). The specs are validated up front: an
// empty type list, a missing Run, a duplicate or empty name, a negative
// weight, or an all-zero weight total would otherwise surface later as a
// NaN mix or a panic mid-generation.
func NewCustom(name string, m *storage.Manager, seed int64, types []TxnSpec) (*Benchmark, error) {
	if err := validateTypes(name, types); err != nil {
		return nil, err
	}
	return newBenchmark(name, m, rand.New(rand.NewSource(seed)), types), nil
}

// validateTypes rejects transaction-spec lists the mix machinery cannot
// serve. TPC builders bypass it (their specs are compile-time constants);
// every user-supplied path goes through it.
func validateTypes(name string, types []TxnSpec) error {
	if len(types) == 0 {
		return fmt.Errorf("workload %s: no transaction types", name)
	}
	seen := make(map[string]bool, len(types))
	total := 0.0
	for i, t := range types {
		if t.Name == "" {
			return fmt.Errorf("workload %s: type %d has no name", name, i)
		}
		if seen[t.Name] {
			return fmt.Errorf("workload %s: duplicate type name %q", name, t.Name)
		}
		seen[t.Name] = true
		if t.Run == nil {
			return fmt.Errorf("workload %s: type %q has no Run", name, t.Name)
		}
		if t.Weight < 0 {
			return fmt.Errorf("workload %s: type %q has negative weight %v", name, t.Name, t.Weight)
		}
		total += t.Weight
	}
	if total <= 0 {
		return fmt.Errorf("workload %s: mix weights sum to %v, want > 0", name, total)
	}
	return nil
}

func newBenchmark(name string, m *storage.Manager, rng *rand.Rand, types []TxnSpec) *Benchmark {
	b := &Benchmark{name: name, m: m, rng: rng, types: types}
	total := 0.0
	for _, t := range types {
		total += t.Weight
	}
	acc := 0.0
	for _, t := range types {
		acc += t.Weight / total
		b.cum = append(b.cum, acc)
	}
	return b
}

// Name returns the benchmark name ("TPC-B", "TPC-C", "TPC-E").
func (b *Benchmark) Name() string { return b.name }

// Manager returns the underlying storage manager.
func (b *Benchmark) Manager() *storage.Manager { return b.m }

// TypeNames returns the transaction type names indexed by trace.TxnType.
func (b *Benchmark) TypeNames() []string {
	names := make([]string, len(b.types))
	for i, t := range b.types {
		names[i] = t.Name
	}
	return names
}

// TypeByName returns the TxnType for a transaction name.
func (b *Benchmark) TypeByName(name string) (trace.TxnType, bool) {
	for i, t := range b.types {
		if t.Name == name {
			return trace.TxnType(i), true
		}
	}
	return 0, false
}

// pickType draws a transaction type from the mix.
func (b *Benchmark) pickType() int {
	r := b.rng.Float64()
	for i, c := range b.cum {
		if r < c {
			return i
		}
	}
	return len(b.cum) - 1
}

// NextTxn runs one transaction, drawn from the mix, against the manager's
// current recorder, and returns its type.
func (b *Benchmark) NextTxn() trace.TxnType {
	i := b.pickType()
	spec := b.types[i]
	rec := b.m.Recorder()
	rec.TxnBegin(trace.TxnType(i), spec.Name)
	txn := b.m.Begin()
	spec.Run(txn)
	b.m.Commit(txn)
	rec.TxnEnd()
	return trace.TxnType(i)
}

// GenerateSet collects n transaction traces into a Set (the paper's trace
// batches, Section 4.1).
func GenerateSet(b *Benchmark, n int) *trace.Set {
	buf := trace.NewBuffer(true)
	prev := b.m.Recorder()
	b.m.SetRecorder(buf)
	defer b.m.SetRecorder(prev)
	s := &trace.Set{Workload: b.name, TypeNames: b.TypeNames()}
	for i := 0; i < n; i++ {
		b.NextTxn()
		s.Traces = append(s.Traces, buf.Take()[0])
	}
	return s
}

// Stream generates n traces one at a time, calling fn on each and then
// discarding it — the memory-bounded path for the 11,000-trace stability
// experiment (Section 4.2).
func Stream(b *Benchmark, n int, fn func(i int, t *trace.Trace)) {
	buf := trace.NewBuffer(true)
	prev := b.m.Recorder()
	b.m.SetRecorder(buf)
	defer b.m.SetRecorder(prev)
	for i := 0; i < n; i++ {
		b.NextTxn()
		fn(i, buf.Take()[0])
	}
}

// Builder constructs one of the three benchmarks by name.
func Builder(name string) (func(seed int64, scale float64) *Benchmark, error) {
	switch name {
	case "TPC-B", "tpcb":
		return NewTPCB, nil
	case "TPC-C", "tpcc":
		return NewTPCC, nil
	case "TPC-E", "tpce":
		return NewTPCE, nil
	}
	return nil, fmt.Errorf("workload: unknown benchmark %q (want TPC-B, TPC-C, or TPC-E)", name)
}

// All returns the three standard benchmarks at the given scale, in paper
// order.
func All(seed int64, scale float64) []*Benchmark {
	return []*Benchmark{NewTPCB(seed, scale), NewTPCC(seed, scale), NewTPCE(seed, scale)}
}

// scaled returns max(1, int(n*scale)).
func scaled(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 1 {
		return 1
	}
	return v
}

// mustInsert is the population-path insert; population bugs are fatal.
func mustInsert(m *storage.Manager, txn *storage.Txn, tbl *storage.Table, keys []uint64, rec []byte) storage.RID {
	rid, err := m.InsertTuple(txn, tbl, keys, rec)
	if err != nil {
		panic(fmt.Sprintf("workload: population insert into %s: %v", tbl.Name(), err))
	}
	return rid
}
