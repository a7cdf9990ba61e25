package synth

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"addict/internal/codemap"
	"addict/internal/storage"
	"addict/internal/workload"
)

// Key-skew distribution names.
const (
	DistUniform = "uniform"
	DistZipfian = "zipfian"
	DistHotSet  = "hotset"
)

// Skew declares how transaction operations pick keys within a table's
// [0, rows) base population.
type Skew struct {
	// Dist is the distribution: "uniform", "zipfian" (YCSB-style, exponent
	// Theta), or "hotset" (probability HotProb of drawing from the first
	// HotKeys keys).
	Dist string `json:"dist"`
	// Theta is the zipfian exponent, in (0, 1). Higher is more skewed;
	// YCSB's default is 0.99.
	Theta float64 `json:"theta,omitempty"`
	// HotKeys is the hot-set size in keys (clamped to the scaled row count).
	HotKeys int `json:"hot_keys,omitempty"`
	// HotProb is the probability an access lands in the hot set.
	HotProb float64 `json:"hot_prob,omitempty"`
}

// Phase is one window of a cyclic multi-phase schedule. Non-nil fields
// override the spec's base values while the phase is active; the schedule
// repeats every sum-of-Traces transactions of the global trace stream, so
// phase membership depends only on a transaction's absolute index — never
// on sharding or worker count.
type Phase struct {
	// Traces is the phase length in transactions (> 0).
	Traces int `json:"traces"`
	// Skew, when non-nil, replaces the base key-skew distribution.
	Skew *Skew `json:"skew,omitempty"`
	// WriteFrac, when non-nil, replaces the base update fraction.
	WriteFrac *float64 `json:"write_frac,omitempty"`
}

// Spec declares a synthetic workload. The zero value of every field selects
// a sensible default (see withDefaults); Validate rejects contradictory
// settings. Specs are JSON-serializable for cmd/tracegen -synth files.
type Spec struct {
	// Name labels the workload (trace.Set.Workload, sweep unit IDs).
	Name string `json:"name,omitempty"`

	// Tables is the number of identically-sized tables (default 1), each
	// with one primary index.
	Tables int `json:"tables,omitempty"`
	// Rows is the per-table base population at scale 1.0 (default 65536).
	Rows int `json:"rows,omitempty"`
	// RecBytes is the record size (default 128, minimum 16).
	RecBytes int `json:"rec_bytes,omitempty"`

	// TxnTypes is the number of transaction types in the mix (default 1,
	// equal weights).
	TxnTypes int `json:"txn_types,omitempty"`
	// ReadOnlyTypes makes the first n types read-only regardless of the
	// write mix — distinct code paths in the sense of TPC-E's read-only
	// majority (their ops never enter the update/insert routines).
	ReadOnlyTypes int `json:"read_only_types,omitempty"`
	// PrivateTables pins type t to table t mod Tables, giving each type a
	// private data partition (and so a private index/descent path); when
	// false every op draws its table uniformly — the fully shared regime.
	PrivateTables bool `json:"private_tables,omitempty"`

	// OpsMin/OpsMax bound the uniform ops-per-transaction distribution
	// (defaults 4 and 12).
	OpsMin int `json:"ops_min,omitempty"`
	OpsMax int `json:"ops_max,omitempty"`

	// Skew is the base key distribution (default uniform).
	Skew Skew `json:"skew,omitempty"`

	// WriteFrac is the probability an op is a probe+update; InsertFrac an
	// insert of a fresh key; ScanFrac a bounded index scan; the remainder
	// are plain index probes. The three must sum to at most 1. Read-only
	// types treat WriteFrac and InsertFrac as 0.
	WriteFrac  float64 `json:"write_frac,omitempty"`
	InsertFrac float64 `json:"insert_frac,omitempty"`
	ScanFrac   float64 `json:"scan_frac,omitempty"`
	// ScanLen is the key span (and result cap) of scan ops (default 16).
	ScanLen int `json:"scan_len,omitempty"`

	// Phases is the optional cyclic schedule; empty means the base values
	// hold throughout.
	Phases []Phase `json:"phases,omitempty"`
}

// withDefaults fills unset fields with the documented defaults.
func (s Spec) withDefaults() Spec {
	if s.Name == "" {
		s.Name = "synth"
	}
	if s.Tables == 0 {
		s.Tables = 1
	}
	if s.Rows == 0 {
		s.Rows = 65536
	}
	if s.RecBytes == 0 {
		s.RecBytes = 128
	}
	if s.TxnTypes == 0 {
		s.TxnTypes = 1
	}
	// Ops bounds default independently: both unset selects 4-12, a lone
	// OpsMin selects a fixed count, a lone OpsMax keeps the default lower
	// bound (clamped so the range stays valid).
	if s.OpsMin == 0 && s.OpsMax == 0 {
		s.OpsMin, s.OpsMax = 4, 12
	}
	if s.OpsMax == 0 {
		s.OpsMax = s.OpsMin
	}
	if s.OpsMin == 0 {
		s.OpsMin = 4
		if s.OpsMin > s.OpsMax {
			s.OpsMin = s.OpsMax
		}
	}
	if s.Skew.Dist == "" {
		s.Skew.Dist = DistUniform
	}
	if s.ScanLen == 0 {
		s.ScanLen = 16
	}
	return s
}

// validateSkew checks one skew declaration.
func validateSkew(where string, k Skew) error {
	// Range checks are phrased positively (!(lo < v && v < hi)) so NaN —
	// for which every comparison is false — is rejected too.
	switch k.Dist {
	case DistUniform:
	case DistZipfian:
		if !(k.Theta > 0 && k.Theta < 1) {
			return fmt.Errorf("synth: %s: zipfian theta %v outside (0, 1)", where, k.Theta)
		}
	case DistHotSet:
		if k.HotKeys < 1 {
			return fmt.Errorf("synth: %s: hotset needs hot_keys >= 1, got %d", where, k.HotKeys)
		}
		if !(k.HotProb >= 0 && k.HotProb <= 1) {
			return fmt.Errorf("synth: %s: hot_prob %v outside [0, 1]", where, k.HotProb)
		}
	default:
		return fmt.Errorf("synth: %s: unknown distribution %q (want uniform, zipfian, or hotset)", where, k.Dist)
	}
	return nil
}

// Validate rejects specs the compiler cannot serve. It is called on the
// defaulted form, so zero fields have already been replaced.
func (s Spec) Validate() error {
	s = s.withDefaults()
	if s.Tables < 1 {
		return fmt.Errorf("synth: tables %d < 1", s.Tables)
	}
	if s.Rows < 2 {
		return fmt.Errorf("synth: rows %d < 2", s.Rows)
	}
	if s.RecBytes < 16 || s.RecBytes > 4096 {
		return fmt.Errorf("synth: rec_bytes %d outside [16, 4096]", s.RecBytes)
	}
	if s.TxnTypes < 1 {
		return fmt.Errorf("synth: txn_types %d < 1", s.TxnTypes)
	}
	if s.ReadOnlyTypes < 0 || s.ReadOnlyTypes > s.TxnTypes {
		return fmt.Errorf("synth: read_only_types %d outside [0, %d]", s.ReadOnlyTypes, s.TxnTypes)
	}
	if s.OpsMin < 1 || s.OpsMax < s.OpsMin {
		return fmt.Errorf("synth: ops range [%d, %d] invalid", s.OpsMin, s.OpsMax)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"write_frac", s.WriteFrac}, {"insert_frac", s.InsertFrac}, {"scan_frac", s.ScanFrac}} {
		if !(f.v >= 0 && f.v <= 1) { // rejects NaN too
			return fmt.Errorf("synth: %s %v outside [0, 1]", f.name, f.v)
		}
	}
	if sum := s.WriteFrac + s.InsertFrac + s.ScanFrac; sum > 1 {
		return fmt.Errorf("synth: write+insert+scan fractions sum to %v > 1", sum)
	}
	if s.ScanLen < 1 {
		return fmt.Errorf("synth: scan_len %d < 1", s.ScanLen)
	}
	if err := validateSkew("skew", s.Skew); err != nil {
		return err
	}
	for i, p := range s.Phases {
		if p.Traces < 1 {
			return fmt.Errorf("synth: phase %d: traces %d < 1", i, p.Traces)
		}
		if p.Skew != nil {
			if err := validateSkew(fmt.Sprintf("phase %d skew", i), *p.Skew); err != nil {
				return err
			}
		}
		if p.WriteFrac != nil {
			if !(*p.WriteFrac >= 0 && *p.WriteFrac <= 1) { // rejects NaN too
				return fmt.Errorf("synth: phase %d: write_frac %v outside [0, 1]", i, *p.WriteFrac)
			}
			if *p.WriteFrac+s.InsertFrac+s.ScanFrac > 1 {
				return fmt.Errorf("synth: phase %d: write_frac %v pushes op fractions over 1", i, *p.WriteFrac)
			}
		}
	}
	return nil
}

// keyDist draws keys in [0, n) for a fixed n resolved at compile time.
type keyDist interface {
	draw(rng *rand.Rand) int
}

type uniformDist struct{ n int }

func (d uniformDist) draw(rng *rand.Rand) int { return rng.Intn(d.n) }

// zipfDist is the Gray et al. zipfian generator YCSB popularized: rank 0 is
// the hottest key. The zeta sum is precomputed once per (rows, theta).
type zipfDist struct {
	n                  int
	alpha, eta         float64
	zetan, halfPowThet float64
}

func newZipf(n int, theta float64) *zipfDist {
	zetan := 0.0
	for i := 1; i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + 1/math.Pow(2, theta)
	return &zipfDist{
		n:           n,
		alpha:       1 / (1 - theta),
		zetan:       zetan,
		eta:         (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
		halfPowThet: math.Pow(0.5, theta),
	}
}

func (z *zipfDist) draw(rng *rand.Rand) int {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.halfPowThet {
		return 1
	}
	i := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if i >= z.n {
		i = z.n - 1
	}
	return i
}

type hotSetDist struct {
	n, hot  int
	hotProb float64
}

func (d hotSetDist) draw(rng *rand.Rand) int {
	if d.hot >= d.n {
		return rng.Intn(d.n)
	}
	if rng.Float64() < d.hotProb {
		return rng.Intn(d.hot)
	}
	return d.hot + rng.Intn(d.n-d.hot)
}

// phaseParams are one phase's resolved knobs.
type phaseParams struct {
	until int64 // cumulative end of the phase within the period (exclusive)
	dist  keyDist
	write float64
}

// bench is the compiled synthetic workload: the populated manager plus the
// state its Run closures share. A bench belongs to exactly one
// workload.Benchmark instance (one shard), so it needs no locking — shards
// are independent by construction.
type bench struct {
	spec   Spec
	m      *storage.Manager
	rng    *rand.Rand
	tables []*storage.Table
	rows   int // scaled per-table base population

	base   phaseParams
	phases []phaseParams
	period int64

	// g is the absolute index of the next transaction in the global trace
	// stream, starting at the constructor's first (see
	// workload.Constructor).
	g int64

	// nextKey[t] is the next fresh insert key of table t (base rows and
	// prior inserts are all taken).
	nextKey []uint64
}

// New compiles a spec into a benchmark over a freshly generated and
// populated storage manager. scale multiplies the per-table row count
// (minimum 2); the result is deterministic in (spec, seed, scale).
func New(spec Spec, seed int64, scale float64) (*workload.Benchmark, error) {
	return newBench(spec, seed, scale, 0)
}

// newBench is New plus the global stream position the instance starts at
// (non-zero only for generation shards).
func newBench(spec Spec, seed int64, scale float64, first int64) (*workload.Benchmark, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rows := int(float64(spec.Rows) * scale)
	if rows < 2 {
		rows = 2
	}

	w := &bench{
		spec: spec,
		// workload.NewCustom seeds the type-selection stream from `seed`;
		// the op/key stream must not replay it, so it draws from a
		// split-off seed (ShardSeed's finalizer with a reserved index —
		// generation shards only ever use indexes >= 0).
		rng:     rand.New(rand.NewSource(workload.ShardSeed(seed, -1))),
		m:       storage.NewManager(codemap.NewLayout()),
		rows:    rows,
		g:       first,
		nextKey: make([]uint64, spec.Tables),
	}

	// Population: Tables identical tables, keys [0, rows).
	rec := make([]byte, spec.RecBytes)
	pop := w.m.BeginLoad()
	for t := 0; t < spec.Tables; t++ {
		tbl := w.m.CreateTable(fmt.Sprintf("synth_%d", t))
		tbl.CreateIndex(fmt.Sprintf("synth_%d_pk", t))
		for k := 0; k < rows; k++ {
			binary.LittleEndian.PutUint64(rec, uint64(k))
			if _, err := w.m.InsertTuple(pop, tbl, []uint64{uint64(k)}, rec); err != nil {
				return nil, fmt.Errorf("synth: populating table %d: %w", t, err)
			}
		}
		w.tables = append(w.tables, tbl)
		w.nextKey[t] = uint64(rows)
	}
	w.m.Commit(pop)

	// Resolve the base and per-phase parameters. Zipf states are cached per
	// theta: phases often share the base distribution.
	zipfs := map[float64]*zipfDist{}
	dist := func(k Skew) keyDist {
		switch k.Dist {
		case DistZipfian:
			z, ok := zipfs[k.Theta]
			if !ok {
				z = newZipf(rows, k.Theta)
				zipfs[k.Theta] = z
			}
			return z
		case DistHotSet:
			hot := k.HotKeys
			if hot > rows {
				hot = rows
			}
			return hotSetDist{n: rows, hot: hot, hotProb: k.HotProb}
		default:
			return uniformDist{n: rows}
		}
	}
	w.base = phaseParams{dist: dist(spec.Skew), write: spec.WriteFrac}
	for _, p := range spec.Phases {
		pp := w.base
		if p.Skew != nil {
			pp.dist = dist(*p.Skew)
		}
		if p.WriteFrac != nil {
			pp.write = *p.WriteFrac
		}
		w.period += int64(p.Traces)
		pp.until = w.period
		w.phases = append(w.phases, pp)
	}

	types := make([]workload.TxnSpec, spec.TxnTypes)
	weight := 1.0 / float64(spec.TxnTypes)
	for t := 0; t < spec.TxnTypes; t++ {
		ro := t < spec.ReadOnlyTypes
		suffix := "rw"
		if ro {
			suffix = "ro"
		}
		types[t] = workload.TxnSpec{
			Name:   fmt.Sprintf("Synth%d%s", t, suffix),
			Weight: weight,
			Run:    w.runner(t, ro),
		}
	}
	return workload.NewCustom(spec.Name, w.m, seed, types)
}

// phase resolves the parameters governing global transaction index g.
func (w *bench) phase(g int64) phaseParams {
	if w.period == 0 {
		return w.base
	}
	pos := g % w.period
	if pos < 0 {
		pos += w.period
	}
	for _, p := range w.phases {
		if pos < p.until {
			return p
		}
	}
	return w.phases[len(w.phases)-1]
}

// runner builds type t's transaction body. Every randomized decision draws
// from the benchmark's single rng stream, so the whole instance is one
// deterministic function of its seed.
func (w *bench) runner(t int, readOnly bool) func(*storage.Txn) {
	return func(txn *storage.Txn) {
		p := w.phase(w.g)
		w.g++
		spec := &w.spec
		nops := spec.OpsMin + w.rng.Intn(spec.OpsMax-spec.OpsMin+1)
		for o := 0; o < nops; o++ {
			ti := t % len(w.tables)
			if !spec.PrivateTables && len(w.tables) > 1 {
				ti = w.rng.Intn(len(w.tables))
			}
			tbl := w.tables[ti]
			write, insert := p.write, spec.InsertFrac
			if readOnly {
				write, insert = 0, 0
			}
			r := w.rng.Float64()
			switch {
			case r < write:
				w.update(txn, tbl, p)
			case r < write+insert:
				w.insert(txn, tbl, ti)
			case r < write+insert+spec.ScanFrac:
				w.scan(txn, tbl, p)
			default:
				w.probe(txn, tbl, p)
			}
		}
	}
}

func (w *bench) probe(txn *storage.Txn, tbl *storage.Table, p phaseParams) {
	key := uint64(p.dist.draw(w.rng))
	if _, _, ok := w.m.IndexProbe(txn, tbl, tbl.Index(0), key); !ok {
		panic(fmt.Sprintf("synth: base key %d vanished from %s", key, tbl.Name()))
	}
}

// update is a probe followed by a read-modify-write of the op counter at
// offset 8 (the record's key stays stamped at offset 0).
func (w *bench) update(txn *storage.Txn, tbl *storage.Table, p phaseParams) {
	key := uint64(p.dist.draw(w.rng))
	rid, rec, ok := w.m.IndexProbe(txn, tbl, tbl.Index(0), key)
	if !ok {
		panic(fmt.Sprintf("synth: base key %d vanished from %s", key, tbl.Name()))
	}
	binary.LittleEndian.PutUint64(rec[8:], binary.LittleEndian.Uint64(rec[8:])+1)
	if err := w.m.UpdateTuple(txn, tbl, rid, key, rec); err != nil {
		panic(err)
	}
}

// insert appends a fresh key past the base population (and past every prior
// insert of this instance), so duplicate-key failures cannot occur.
func (w *bench) insert(txn *storage.Txn, tbl *storage.Table, ti int) {
	key := w.nextKey[ti]
	w.nextKey[ti]++
	rec := make([]byte, w.spec.RecBytes)
	binary.LittleEndian.PutUint64(rec, key)
	if _, err := w.m.InsertTuple(txn, tbl, []uint64{key}, rec); err != nil {
		panic(err)
	}
}

func (w *bench) scan(txn *storage.Txn, tbl *storage.Table, p phaseParams) {
	lo := uint64(p.dist.draw(w.rng))
	w.m.IndexScan(txn, tbl.Index(0), lo, lo+uint64(w.spec.ScanLen)-1, true, true, w.spec.ScanLen)
}

// Compile validates spec and returns its constructor for the shard recipe
// (workload.GenerateSetShardedWith, workload.StreamSharded): an instance
// built with first f runs global transaction f first, so the phase
// schedule follows the absolute trace index whatever the sharding.
func Compile(spec Spec) (workload.Constructor, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return func(seed int64, scale float64, first int64) *workload.Benchmark {
		b, err := newBench(spec, seed, scale, first)
		if err != nil {
			// The spec was validated above; a failure here is a population
			// bug, not an input error.
			panic(err)
		}
		return b
	}, nil
}

// Workload resolves a workload name to its canonical spelling and its
// constructor: the TPC benchmarks through workload.Builder ("TPC-B",
// "TPC-C", "TPC-E"), encoded synthetic names ("synth:<preset>[+z<theta>]
// [+w<frac>][+h<keys>]") through ParseName. It is the one resolver every
// by-name consumer uses — sweep grids, bench configs, the serving daemon,
// cmd/tracegen and the addict facade — so a name accepted anywhere is
// accepted everywhere, and every spelling of one workload keys one set of
// unit IDs, cache entries and store files under its canonical name.
func Workload(name string) (string, workload.Constructor, error) {
	if build, err := workload.Builder(name); err == nil {
		// Builder also takes "tpcb"-style spellings; each ends in its
		// benchmark's letter.
		canon := "TPC-" + strings.ToUpper(name[len(name)-1:])
		return canon, func(seed int64, scale float64, _ int64) *workload.Benchmark { return build(seed, scale) }, nil
	}
	if !IsName(name) {
		return "", nil, fmt.Errorf("workload: unknown workload %q (want TPC-B, TPC-C, TPC-E, or a synth: name)", name)
	}
	spec, err := ParseName(name)
	if err != nil {
		return "", nil, err
	}
	build, err := Compile(spec)
	return spec.Name, build, err
}
