package synth

import "testing"

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
