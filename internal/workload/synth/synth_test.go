package synth

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"addict/internal/trace"
	"addict/internal/workload"
)

// newTestRand returns a seeded rng for distribution tests.
func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// tiny returns a spec small enough for fast tests.
func tiny() Spec {
	return Spec{
		Name:   "synth:test",
		Tables: 2, Rows: 400, TxnTypes: 3, ReadOnlyTypes: 1,
		OpsMin: 2, OpsMax: 6,
		Skew:      Skew{Dist: DistZipfian, Theta: 0.9},
		WriteFrac: 0.4, InsertFrac: 0.1, ScanFrac: 0.1,
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Tables: -1},
		{Rows: 1},
		{RecBytes: 8},
		{TxnTypes: 2, ReadOnlyTypes: 3},
		{OpsMin: 5, OpsMax: 2},
		{WriteFrac: 0.7, InsertFrac: 0.4},
		{WriteFrac: -0.1},
		{Skew: Skew{Dist: "pareto"}},
		{Skew: Skew{Dist: DistZipfian, Theta: 0}},
		{Skew: Skew{Dist: DistZipfian, Theta: 1.5}},
		{Skew: Skew{Dist: DistHotSet}},
		{Skew: Skew{Dist: DistHotSet, HotKeys: 4, HotProb: 1.2}},
		{Skew: Skew{Dist: DistZipfian, Theta: math.NaN()}},
		{Skew: Skew{Dist: DistHotSet, HotKeys: 4, HotProb: math.NaN()}},
		{WriteFrac: math.NaN()},
		{Phases: []Phase{{Traces: 5, WriteFrac: floatPtr(math.NaN())}}},
		{Phases: []Phase{{Traces: 0}}},
		{Phases: []Phase{{Traces: 10, Skew: &Skew{Dist: "nope"}}}},
		{WriteFrac: 0.2, ScanFrac: 0.5, Phases: []Phase{{Traces: 10, WriteFrac: floatPtr(0.6)}}},
	}
	for i, s := range bad {
		if err := s.withDefaults().Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
	if err := (Spec{}).withDefaults().Validate(); err != nil {
		t.Errorf("zero spec (all defaults) rejected: %v", err)
	}
	if err := tiny().Validate(); err != nil {
		t.Errorf("tiny spec rejected: %v", err)
	}
}

// TestOpsDefaultsIndependent: either ops bound may be set alone; the other
// takes a valid default.
func TestOpsDefaultsIndependent(t *testing.T) {
	cases := []struct {
		in       Spec
		min, max int
	}{
		{Spec{}, 4, 12},
		{Spec{OpsMin: 7}, 7, 7},
		{Spec{OpsMax: 8}, 4, 8},
		{Spec{OpsMax: 2}, 2, 2}, // default lower bound clamps to the range
		{Spec{OpsMin: 3, OpsMax: 9}, 3, 9},
	}
	for _, c := range cases {
		got := c.in.withDefaults()
		if got.OpsMin != c.min || got.OpsMax != c.max {
			t.Errorf("withDefaults(%+v) ops = [%d, %d], want [%d, %d]",
				c.in, got.OpsMin, got.OpsMax, c.min, c.max)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("defaulted spec %+v invalid: %v", got, err)
		}
	}
}

func TestNewGeneratesValidTraces(t *testing.T) {
	b, err := New(tiny(), 7, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "synth:test" {
		t.Errorf("Name = %q", b.Name())
	}
	if names := b.TypeNames(); len(names) != 3 || names[0] != "Synth0ro" || names[1] != "Synth1rw" {
		t.Errorf("TypeNames = %v", names)
	}
	s := workload.GenerateSet(b, 80)
	types := map[string]int{}
	for i, tr := range s.Traces {
		if err := tr.Validate(); err != nil {
			t.Fatalf("trace %d: %v", i, err)
		}
		if tr.InstrBlocks() == 0 {
			t.Fatalf("trace %d has no instructions", i)
		}
		types[tr.TypeName]++
	}
	if len(types) != 3 {
		t.Errorf("saw %d types in 80 txns, want 3: %v", len(types), types)
	}
}

// TestReadOnlyTypesNeverWrite: ops of read-only types must stay probes and
// scans even under a write-heavy mix.
func TestReadOnlyTypesNeverWrite(t *testing.T) {
	spec := tiny()
	spec.WriteFrac, spec.InsertFrac = 0.8, 0.1
	b, err := New(spec, 3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	s := workload.GenerateSet(b, 120)
	for i, tr := range s.Traces {
		if tr.TypeName != "Synth0ro" {
			continue
		}
		for _, op := range tr.Ops() {
			switch op.Op {
			case trace.OpUpdateTuple, trace.OpInsertTuple, trace.OpDeleteTuple:
				t.Fatalf("trace %d (read-only type) performed %v", i, op.Op)
			}
		}
	}
}

// TestZipfSkewConcentrates: zipfian(0.99) draws must concentrate far more
// mass on the hottest keys than uniform draws do.
func TestZipfSkewConcentrates(t *testing.T) {
	const n, draws = 1000, 20000
	z := newZipf(n, 0.99)
	rng := newTestRand(11)
	zipfHot := 0
	for i := 0; i < draws; i++ {
		if z.draw(rng) < n/100 {
			zipfHot++
		}
	}
	uni := uniformDist{n: n}
	rng = newTestRand(11)
	uniHot := 0
	for i := 0; i < draws; i++ {
		if uni.draw(rng) < n/100 {
			uniHot++
		}
	}
	zf, uf := float64(zipfHot)/draws, float64(uniHot)/draws
	if zf < 5*uf {
		t.Errorf("zipf top-1%% share %.3f not well above uniform's %.3f", zf, uf)
	}
	if zf < 0.2 {
		t.Errorf("zipf(0.99) top-1%% share %.3f, want > 0.2", zf)
	}
}

// TestHotSetDist: the hot-set distribution must respect HotProb within
// sampling noise, and clamp when the hot set covers the whole population.
func TestHotSetDist(t *testing.T) {
	d := hotSetDist{n: 1000, hot: 10, hotProb: 0.8}
	rng := newTestRand(5)
	hot := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		k := d.draw(rng)
		if k < 0 || k >= 1000 {
			t.Fatalf("draw %d out of range", k)
		}
		if k < 10 {
			hot++
		}
	}
	if f := float64(hot) / draws; f < 0.77 || f > 0.83 {
		t.Errorf("hot share %.3f, want ~0.8", f)
	}
	full := hotSetDist{n: 8, hot: 8, hotProb: 0.5}
	for i := 0; i < 100; i++ {
		if k := full.draw(rng); k < 0 || k >= 8 {
			t.Fatalf("clamped hot set drew %d", k)
		}
	}
}

// TestPhaseSchedule: the phase lookup must cycle with the period and
// normalize negative (pre-warm-up) indexes.
func TestPhaseSchedule(t *testing.T) {
	spec := Spec{
		WriteFrac: 0.1,
		Phases: []Phase{
			{Traces: 10},
			{Traces: 5, WriteFrac: floatPtr(0.9)},
		},
	}
	b, err := newBenchFor(t, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		g    int64
		want float64
	}{{0, 0.1}, {9, 0.1}, {10, 0.9}, {14, 0.9}, {15, 0.1}, {29, 0.9}, {30, 0.1}, {-1, 0.9}, {-6, 0.1}} {
		if got := b.phase(c.g).write; got != c.want {
			t.Errorf("phase(%d).write = %v, want %v", c.g, got, c.want)
		}
	}
}

func TestPresetsAllValidAndGenerate(t *testing.T) {
	if len(Presets()) < 4 {
		t.Fatalf("only %d presets shipped, want >= 4", len(Presets()))
	}
	for _, name := range Presets() {
		spec, ok := Preset(name)
		if !ok {
			t.Fatalf("Preset(%q) missing", name)
		}
		if spec.Name != NamePrefix+name {
			t.Errorf("preset %q spec.Name = %q", name, spec.Name)
		}
		if err := spec.withDefaults().Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
		b, err := New(spec, 1, 0.02)
		if err != nil {
			t.Fatalf("preset %q: %v", name, err)
		}
		s := workload.GenerateSet(b, 10)
		for i, tr := range s.Traces {
			if err := tr.Validate(); err != nil {
				t.Fatalf("preset %q trace %d: %v", name, i, err)
			}
		}
	}
}

func TestParseName(t *testing.T) {
	// Bare preset and prefixed forms resolve to the same spec.
	a, err := ParseName("zipf-hot-rw")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseName("synth:zipf-hot-rw")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != b.Name || a.Name != "synth:zipf-hot-rw" {
		t.Errorf("names %q vs %q", a.Name, b.Name)
	}

	// Overrides apply and canonicalize.
	s, err := ParseName("synth:uniform-ro+z0.99+w0.5")
	if err != nil {
		t.Fatal(err)
	}
	if s.Skew.Dist != DistZipfian || s.Skew.Theta != 0.99 || s.WriteFrac != 0.5 {
		t.Errorf("overrides not applied: %+v", s)
	}
	if s.Name != "synth:uniform-ro+z0.99+w0.5" {
		t.Errorf("canonical name = %q", s.Name)
	}
	if s.Name != EncodeName("uniform-ro", 0.99, 0.5, 0) {
		t.Errorf("EncodeName mismatch: %q", EncodeName("uniform-ro", 0.99, 0.5, 0))
	}

	// Every spelling of a value lands on one canonical name.
	for _, alias := range []string{"synth:uniform-ro+w.5", "synth:uniform-ro+w0.50", "synth:Uniform-RO+w.5", "UNIFORM-ro+w0.5"} {
		got, err := ParseName(alias)
		if err != nil {
			t.Fatalf("ParseName(%q): %v", alias, err)
		}
		if got.Name != "synth:uniform-ro+w0.5" {
			t.Errorf("ParseName(%q).Name = %q, want canonical synth:uniform-ro+w0.5", alias, got.Name)
		}
	}

	h, err := ParseName("synth:uniform-ro+h64")
	if err != nil {
		t.Fatal(err)
	}
	if h.Skew.Dist != DistHotSet || h.Skew.HotKeys != 64 || h.Skew.HotProb != 0.9 {
		t.Errorf("hot override: %+v", h.Skew)
	}

	for _, bad := range []string{
		"synth:nope", "synth:uniform-ro+q3", "synth:uniform-ro+z",
		"synth:uniform-ro+zabc", "synth:uniform-ro+z2.0",
		"synth:uniform-ro+z0.9+h8", "synth:uniform-ro+w-1",
		"synth:uniform-ro+w0.2+w0.5", // duplicate overrides: several "canonical" names, one spec
		"synth:uniform-ro+z0.5+z0.9",
		"synth:uniform-ro+zNaN", // NaN passes naive range checks and panics mid-generation
		"synth:uniform-ro+wNaN",
	} {
		if _, err := ParseName(bad); err == nil {
			t.Errorf("ParseName(%q) accepted", bad)
		}
	}
}

func TestIsName(t *testing.T) {
	if !IsName("synth:uniform-ro") || IsName("TPC-B") || IsName("uniform-ro") {
		t.Error("IsName misclassifies")
	}
}

// TestEncodeNameOmitsAbsent: the absent-override sentinels must not leak
// into names.
func TestEncodeNameOmitsAbsent(t *testing.T) {
	if got := EncodeName("long-txn", 0, -1, 0); got != "synth:long-txn" {
		t.Errorf("EncodeName with no overrides = %q", got)
	}
	if got := EncodeName("long-txn", 0, 0, 0); got != "synth:long-txn+w0" {
		t.Errorf("EncodeName with zero write frac = %q", got)
	}
}

// TestSpecJSONRoundTrip: specs must survive the -synth spec-file path.
func TestSpecJSONRoundTrip(t *testing.T) {
	spec, _ := Preset("phase-shift")
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != spec.Name || len(back.Phases) != len(spec.Phases) {
		t.Errorf("round trip lost fields: %+v", back)
	}
	if back.Phases[1].WriteFrac == nil || *back.Phases[1].WriteFrac != 0.8 {
		t.Error("phase override lost in JSON round trip")
	}
	if !strings.Contains(string(data), "zipfian") {
		t.Errorf("JSON missing skew: %s", data)
	}
}

// newBenchFor compiles a spec at minimal size and returns the internal
// bench for white-box phase tests.
func newBenchFor(t *testing.T, spec Spec) (*bench, error) {
	t.Helper()
	spec.Rows = 16
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	w := &bench{spec: spec, rows: 16}
	w.base = phaseParams{write: spec.WriteFrac}
	for _, p := range spec.Phases {
		pp := w.base
		if p.WriteFrac != nil {
			pp.write = *p.WriteFrac
		}
		w.period += int64(p.Traces)
		pp.until = w.period
		w.phases = append(w.phases, pp)
	}
	return w, nil
}
