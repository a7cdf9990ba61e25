package synth

import (
	"encoding/json"
	"testing"

	"addict/internal/wire"
	"addict/internal/workload"
)

// FuzzParseName is the fuzz target for encoded synthetic workload names,
// which arrive from sweep grids, bench configs, serve requests, and the
// command line. Whenever ParseName accepts a name, the spec's canonical
// Name parses again to the same Name — canonical names are a fixed point,
// so a name that round-trips through a unit ID or a store key keeps
// denoting one spec — and ParseName never panics.
//
// CI runs this briefly on every push (see the fuzz-smoke step); longer
// local runs: go test ./internal/workload/synth -fuzz=FuzzParseName.
func FuzzParseName(f *testing.F) {
	for _, p := range Presets() {
		f.Add(p)
		f.Add(NamePrefix + p)
	}
	for _, name := range []string{
		"synth:uniform-ro+z0.99+w0.5", "synth:uniform-ro+w.5", "synth:uniform-ro+w0.50",
		"synth:uniform-ro+h64", "synth:hotset-write+h8", "synth:zipf-hot-rw+z1e-3",
		"synth:uniform-ro+z", "synth:uniform-ro+zNaN", "synth:uniform-ro+w0.2+w0.5",
		"synth:", "", "+", "synth:phase-shift+w1",
	} {
		f.Add(name)
	}

	f.Fuzz(func(t *testing.T, name string) {
		spec, err := ParseName(name)
		if err != nil {
			return
		}
		again, err := ParseName(spec.Name)
		if err != nil {
			t.Fatalf("ParseName(%q) gave canonical name %q, which does not parse: %v", name, spec.Name, err)
		}
		if again.Name != spec.Name {
			t.Fatalf("canonical name is not a fixed point: %q -> %q -> %q", name, spec.Name, again.Name)
		}
	})
}

// Generation budget of FuzzSynthSpec: a spec that validates is compiled
// and traced only while its population and per-transaction work stay small,
// so every fuzz input runs in milliseconds. Every field's full range still
// reaches Validate and the compiler's parameter resolution.
const (
	fuzzScale     = 1e-3
	fuzzMaxRows   = 1 << 12 // Tables × scaled Rows
	fuzzMaxTypes  = 64
	fuzzMaxOps    = 128
	fuzzMaxPhases = 64
)

// FuzzSynthSpec is the fuzz target for synthetic-workload spec JSON, the
// file format tracegen -synth reads. Decoding never panics, and a spec
// Validate accepts compiles and generates two traces without panicking:
// anything that panics past Validate is a validator defect.
//
// CI runs this briefly on every push (see the fuzz-smoke step); longer
// local runs: go test ./internal/workload/synth -fuzz=FuzzSynthSpec.
func FuzzSynthSpec(f *testing.F) {
	for _, name := range Presets() {
		spec, _ := Preset(name)
		data, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, seed := range []string{
		`{}`,
		`{"rows":2,"skew":{"dist":"zipfian","theta":0.999999}}`,
		`{"scan_frac":1,"scan_len":9223372036854775807}`,
		`{"phases":[{"traces":1},{"traces":1,"skew":{"dist":"hotset","hot_keys":1,"hot_prob":1}}]}`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		if err := wire.Unmarshal(data, &spec); err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			return
		}
		d := spec.withDefaults()
		rows := max(2, int(float64(d.Rows)*fuzzScale))
		if d.Tables > fuzzMaxRows/rows || d.TxnTypes > fuzzMaxTypes ||
			d.OpsMax > fuzzMaxOps || len(d.Phases) > fuzzMaxPhases {
			return
		}
		build, err := ShardBuilder(spec, 1, fuzzScale, 2)
		if err != nil {
			t.Fatalf("ShardBuilder rejected a validated spec: %v", err)
		}
		set := workload.GenerateSet(build(0), 2)
		if len(set.Traces) != 2 {
			t.Fatalf("generated %d traces, want 2", len(set.Traces))
		}
	})
}
