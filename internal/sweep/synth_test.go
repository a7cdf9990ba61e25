package sweep

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
)

// synthSpec is the synthetic acceptance grid: one preset swept over 2
// thetas x 2 write fractions = 4 workload variants x 2 mechanisms.
func synthSpec() Spec {
	return Spec{
		Seed:          7,
		Scale:         0.01,
		ProfileTraces: 60,
		EvalTraces:    40,
		Mechanisms:    []string{"Baseline", "ADDICT"},
		Synth:         "zipf-hot-rw",
		SynthThetas:   []float64{0.6, 0.99},
		SynthWriteFracs: []float64{
			0.1, 0.8,
		},
	}
}

func TestSynthAxesExpand(t *testing.T) {
	units, err := synthSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 8 {
		t.Fatalf("expanded %d units, want 8", len(units))
	}
	// Synth variants replace the default TPC trio, theta outermost.
	if got := units[0].Workload; got != "synth:zipf-hot-rw+z0.6+w0.1" {
		t.Errorf("first workload = %q", got)
	}
	if got := units[6].Workload; got != "synth:zipf-hot-rw+z0.99+w0.8" {
		t.Errorf("last variant = %q", got)
	}
	for _, u := range units {
		if !strings.HasPrefix(u.ID, u.Workload+"/") {
			t.Errorf("unit ID %q does not embed workload %q", u.ID, u.Workload)
		}
	}
}

func TestSynthAxesAppendAfterExplicitWorkloads(t *testing.T) {
	s := synthSpec()
	s.Workloads = []string{"TPC-B"}
	s.SynthThetas, s.SynthWriteFracs = nil, nil
	units, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 4 { // (TPC-B + 1 synth variant) x 2 mechanisms
		t.Fatalf("expanded %d units, want 4", len(units))
	}
	if units[0].Workload != "TPC-B" || units[2].Workload != "synth:zipf-hot-rw" {
		t.Errorf("workload order: %q then %q", units[0].Workload, units[2].Workload)
	}
}

func TestSynthAxesRejectBadValues(t *testing.T) {
	cases := []Spec{
		{SynthThetas: []float64{0.5}},                                               // axes without preset
		{Synth: "no-such-preset"},                                                   // unknown preset
		{Synth: "zipf-hot-rw", SynthThetas: []float64{0}},                           // sentinel value
		{Synth: "zipf-hot-rw", SynthThetas: []float64{1.2}},                         // out of range
		{Synth: "zipf-hot-rw", SynthWriteFracs: []float64{2}},                       // out of range
		{Synth: "zipf-hot-rw", SynthHotKeys: []int{0}},                              // not positive
		{Synth: "zipf-hot-rw", SynthThetas: []float64{0.5}, SynthHotKeys: []int{8}}, // z+h exclusive
	}
	for i, s := range cases {
		if _, err := s.Expand(); err == nil {
			t.Errorf("bad synth spec %d accepted: %+v", i, s)
		}
	}
}

// TestWorkloadSpellingsExpandToOneID: every spelling of one workload — a
// value written differently, a preset or TPC name in another form, in the
// workload axis or the synth axes — expands to the canonical unit IDs.
func TestWorkloadSpellingsExpandToOneID(t *testing.T) {
	ids := func(s Spec) []string {
		t.Helper()
		s.Mechanisms = []string{"Baseline", "ADDICT"}
		units, err := s.Expand()
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(units))
		for i, u := range units {
			out[i] = u.ID
		}
		return out
	}
	want := ids(Spec{Workloads: []string{"synth:uniform-ro+w0.5", "TPC-B"}})
	if !strings.HasPrefix(want[0], "synth:uniform-ro+w0.5/") {
		t.Fatalf("first unit ID %q", want[0])
	}
	for _, alias := range [][]string{{"synth:uniform-ro+w.5", "TPC-B"}, {"synth:Uniform-RO+w0.50", "tpcb"}} {
		if got := ids(Spec{Workloads: alias}); !reflect.DeepEqual(got, want) {
			t.Errorf("workloads %q expand to %q, want %q", alias, got, want)
		}
	}
	want = ids(Spec{Synth: "zipf-hot-rw", SynthThetas: []float64{0.9}})
	if got := ids(Spec{Synth: "Zipf-Hot-RW", SynthThetas: []float64{0.9}}); !reflect.DeepEqual(got, want) {
		t.Errorf("synth=Zipf-Hot-RW expands to %q, want %q", got, want)
	}
}

func TestSynthWorkloadNamesAcceptedInWorkloadsAxis(t *testing.T) {
	s := Spec{
		Seed: 7, Scale: 0.01, ProfileTraces: 60, EvalTraces: 40,
		Workloads:  []string{"synth:uniform-ro"},
		Mechanisms: []string{"Baseline"},
	}
	var buf bytes.Buffer
	em, err := NewEmitter("csv", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := Run(context.Background(), s, em, 2, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "synth:uniform-ro/Baseline/") {
		t.Errorf("sweep output missing synth unit:\n%s", buf.String())
	}

	s.Workloads = []string{"synth:bogus"}
	em, _ = NewEmitter("csv", &buf)
	if err := Run(context.Background(), s, em, 1, nil); err == nil {
		t.Error("unknown synth workload accepted by Run")
	}
}

// TestSynthSweepWorkerCountByteIdentity extends the subsystem's headline
// guarantee over the synthetic grid: byte-identical CSV for every worker
// count, including the ADDICT cells that profile the synth traces.
func TestSynthSweepWorkerCountByteIdentity(t *testing.T) {
	spec := synthSpec()
	want := runToBytes(t, spec, "csv", 1)
	if len(want) == 0 {
		t.Fatal("serial synth sweep produced no output")
	}
	for _, workers := range []int{2, 8} {
		got := runToBytes(t, spec, "csv", workers)
		if !bytes.Equal(got, want) {
			t.Errorf("synth sweep output (workers=%d) diverges from serial: %s",
				workers, firstDiff(want, got))
		}
	}
}
