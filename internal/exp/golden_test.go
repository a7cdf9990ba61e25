package exp

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the renderer golden files under testdata/")

// goldenIDs maps a section title prefix to its golden file, in the report's
// presentation order. Sections sharing a prefix (e.g. Figure 2's three
// workloads) concatenate into one file.
var goldenIDs = []struct{ prefix, id string }{
	{"Table 1:", "table1"},
	{"Figure 1:", "fig1"},
	{"Figure 2:", "fig2"},
	{"Figure 3:", "fig3"},
	{"Figure 4:", "fig4"},
	{"Figure 5:", "fig5"},
	{"Figure 6:", "fig6"},
	{"Figure 7:", "fig7"},
	{"Figure 8a:", "fig8a"},
	{"Figure 8b:", "fig8b"},
	{"Figure 9:", "fig9"},
	{"Ablations", "ablations"},
	{"Synthetic workloads:", "synthchar"},
}

// splitReport cuts a full report into per-golden-id chunks. Every section
// starts with "\n<title>\n====...\n" (see section()); a chunk runs from the
// newline preceding its title to the start of the next section.
func splitReport(t *testing.T, report []byte) map[string][]byte {
	t.Helper()
	lines := bytes.SplitAfter(report, []byte("\n"))
	isRule := func(l []byte) bool {
		l = bytes.TrimRight(l, "\n")
		if len(l) == 0 {
			return false
		}
		for _, c := range l {
			if c != '=' {
				return false
			}
		}
		return true
	}
	idOf := func(title []byte) string {
		for _, g := range goldenIDs {
			if bytes.HasPrefix(title, []byte(g.prefix)) {
				return g.id
			}
		}
		t.Fatalf("section title %q matches no golden id", title)
		return ""
	}

	// Offsets of each line start.
	offsets := make([]int, len(lines)+1)
	for i, l := range lines {
		offsets[i+1] = offsets[i] + len(l)
	}

	type boundary struct {
		start int // includes the leading "\n" the section printed
		id    string
	}
	var bounds []boundary
	for i := 0; i+1 < len(lines); i++ {
		if isRule(lines[i+1]) && len(bytes.TrimRight(lines[i], "\n")) > 0 {
			start := offsets[i]
			if start > 0 && report[start-1] == '\n' {
				start-- // the blank separator belongs to this section
			}
			bounds = append(bounds, boundary{start: start, id: idOf(lines[i])})
		}
	}
	if len(bounds) == 0 {
		t.Fatal("no sections found in report")
	}
	out := make(map[string][]byte)
	for i, b := range bounds {
		end := len(report)
		if i+1 < len(bounds) {
			end = bounds[i+1].start
		}
		out[b.id] = append(out[b.id], report[b.start:end]...)
	}
	return out
}

// TestRenderersMatchGoldens locks every renderer's QuickParams() output to
// the committed goldens, so a concurrency (or any other) refactor cannot
// silently change reported numbers. Regenerate with:
//
//	go test ./internal/exp -run TestRenderersMatchGoldens -update
func TestRenderersMatchGoldens(t *testing.T) {
	if raceEnabled {
		t.Skip("goldens encode QuickParams() output; skipped under -race for time (covered by the plain test tier)")
	}
	chunks := splitReport(t, serialQuickReport())
	if len(chunks) != len(goldenIDs) {
		t.Errorf("report has %d distinct sections, want %d", len(chunks), len(goldenIDs))
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range goldenIDs {
		path := filepath.Join("testdata", g.id+".golden")
		got, ok := chunks[g.id]
		if !ok {
			t.Errorf("report is missing the %s section", g.id)
			continue
		}
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden %s (run with -update to regenerate): %v", path, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s output changed from golden %s: %s\n(regenerate with -update if intended)",
				g.id, path, firstDiff(want, got))
		}
	}
}
