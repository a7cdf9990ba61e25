package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// serveBin is the addict-serve binary built once for the serve-warm cases.
var serveBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "addictbench-test-")
	if err != nil {
		panic(err)
	}
	serveBin = filepath.Join(dir, "addict-serve")
	out, err := exec.Command("go", "build", "-o", serveBin, "addict/cmd/addict-serve").CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		panic("build addict-serve: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tiny is a run small enough for a unit test.
func tiny(t *testing.T, workload string, traced bool) config {
	dir := t.TempDir()
	return config{
		workload: workload, seed: 5, seconds: 2, trace: traced,
		serveBin: serveBin, workDir: dir, spanPath: filepath.Join(dir, "spans.jsonl"),
		scale: 0.05, traces: 40, readRate: 60, computeRate: 2,
	}
}

// benchmarkFile is the part of BENCHMARK.json the test compares with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesMetrics keeps BENCHMARK.json and the metric
// tables in step.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	check := func(kind string, specs []metricSpec, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(specs) != len(listed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(listed), len(specs))
			return
		}
		for i, s := range specs {
			if listed[i].Name != s.name || listed[i].Unit != s.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					kind, i, listed[i].Name, listed[i].Unit, s.name, s.unit)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
}

// TestSmoke runs every workload, untraced and traced, at tiny sizes: each
// must pass its output checks and report every metric of its set, by name,
// with its unit, in the report and in the JSON result.
func TestSmoke(t *testing.T) {
	for _, w := range []string{"cold-sweep", "replay-grid", "serve-warm"} {
		for _, traced := range []bool{false, true} {
			cfg := tiny(t, w, traced)
			var out bytes.Buffer
			res, err := execute(context.Background(), cfg, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w, traced, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					w, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.name]
				if !ok || m.Unit != s.unit {
					t.Errorf("%s trace=%v: metric %s missing or without unit %s: %+v", w, traced, s.name, s.unit, m)
				}
				if !bytes.Contains(out.Bytes(), []byte(s.name)) {
					t.Errorf("%s trace=%v: report does not print %s", w, traced, s.name)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, s.name, m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(cfg.spanPath); err != nil {
					t.Errorf("%s: span dump: %v", w, err)
				}
			}
		}
	}
}

// TestCorruptDigestFails proves an output that does not match its
// reference is counted as a failure and makes the run incorrect.
func TestCorruptDigestFails(t *testing.T) {
	for _, traced := range []bool{false, true} {
		cfg := tiny(t, "cold-sweep", traced)
		cfg.corruptDigest = true
		var out bytes.Buffer
		res, err := execute(context.Background(), cfg, &out)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("trace=%v: corrupted digest not counted: correct=%v attempted=%d failed=%d\n%s",
				traced, res.Correct, res.Attempted, res.Failed, out.String())
		}
	}
}
