package suggest_test

import (
	"slices"
	"strings"
	"testing"

	"addict/internal/sched"
	"addict/internal/suggest"
	"addict/internal/workload/synth"
)

// candidateLists are the name sets Nearest serves: the mechanisms
// (ParseMechanism) and the synthetic workload presets (synth.ParseName).
func candidateLists() [][]string {
	var mechs []string
	for _, m := range sched.AllMechanisms {
		mechs = append(mechs, string(m))
	}
	return [][]string{mechs, synth.Presets()}
}

// FuzzNearest: over arbitrary names and the real candidate lists, Nearest
// never panics, suggests either nothing or a candidate within the cutoff
// (and nothing only when no candidate is within it), and answers an exact
// case-insensitive match with that candidate.
func FuzzNearest(f *testing.F) {
	for _, seed := range []string{"", "ADICT", "htmspc", "Chian", "zipf-hot-rm", "Zipf-Hot-RW", "abcdefgh", "\xff\xfe", "ſtrex"} {
		f.Add(seed)
	}
	lists := candidateLists()
	f.Fuzz(func(t *testing.T, name string) {
		lower := strings.ToLower(name)
		for _, cands := range lists {
			got := suggest.Nearest(name, cands)
			if got != "" && !slices.Contains(cands, got) {
				t.Fatalf("Nearest(%q) = %q, not a candidate", name, got)
			}
			for _, c := range cands {
				d := suggest.Distance(lower, strings.ToLower(c))
				if got == "" && d <= suggest.Cutoff(name) {
					t.Fatalf("Nearest(%q) = \"\", but %q is %d edits away (cutoff %d)", name, c, d, suggest.Cutoff(name))
				}
				if c == got && d > suggest.Cutoff(name) {
					t.Fatalf("Nearest(%q) = %q, %d edits away (cutoff %d)", name, got, d, suggest.Cutoff(name))
				}
				if d == 0 && got != c {
					t.Fatalf("Nearest(%q) = %q, want the exact match %q", name, got, c)
				}
			}
		}
	})
}
