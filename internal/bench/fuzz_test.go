package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadBenchFile fuzzes the bench-file decoder that -baseline feeds: any
// input either errors or yields a file whose current report (and embedded
// baseline, when present) carries a known schema, and it never panics.
// The committed BENCH_*.json files seed the corpus. CI runs it briefly on
// every push; longer local runs:
// go test ./internal/bench -run=NONE -fuzz=FuzzReadBenchFile.
func FuzzReadBenchFile(f *testing.F) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"schema":"addict-bench/v2","cells":[]}`))
	f.Add([]byte(`{"baseline":{"schema":"addict-bench/v1"}}`))
	f.Add([]byte(`{"current":{"schema":"addict-bench/v2"},"baseline":{"schema":"nope"}}`))
	f.Add([]byte(`{"current":null}`))
	f.Add([]byte(`[]`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := ReadFile(bytes.NewReader(data))
		if err != nil {
			return
		}
		if file.Current == nil {
			t.Fatal("accepted a file without a current report")
		}
		if err := checkSchema(file.Current.Schema); err != nil {
			t.Fatalf("accepted current report: %v", err)
		}
		if file.Baseline != nil {
			if err := checkSchema(file.Baseline.Schema); err != nil {
				t.Fatalf("accepted embedded baseline: %v", err)
			}
		}
	})
}
