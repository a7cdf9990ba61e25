package workload_test

import (
	"context"
	"strings"
	"testing"

	"addict/internal/workload"
	"addict/internal/workload/synth"
)

// TestResolveErrors: unknown names and synth names that fail to parse must
// both fail, the latter with the parser's own diagnosis.
func TestResolveErrors(t *testing.T) {
	if _, _, err := synth.Workload("nope"); err == nil {
		t.Error("Workload(nope) = nil error, want error")
	}
	_, _, err := synth.Workload("synth:not-a-preset")
	if err == nil {
		t.Fatal("Workload(synth:not-a-preset) = nil error, want error")
	}
	if !strings.Contains(err.Error(), "not-a-preset") {
		t.Errorf("synth-name error %q does not name the bad preset", err)
	}
	if _, _, err := synth.Workload("synth:uniform-ro"); err != nil {
		t.Errorf("Workload(synth:uniform-ro) = %v", err)
	}
}

// TestResolveBuild: the resolved constructor compiles a usable benchmark
// for both name spaces.
func TestResolveBuild(t *testing.T) {
	for _, name := range []string{"TPC-B", "synth:uniform-ro"} {
		_, build, err := synth.Workload(name)
		if err != nil {
			t.Fatal(err)
		}
		if s := workload.GenerateSet(build(3, 0.02, 0), 3); len(s.Traces) != 3 {
			t.Errorf("%s: generated %d traces, want 3", name, len(s.Traces))
		}
	}
}

// TestGenerateSetShardedWithCtxCancelled: a cancelled context must abort
// generation with the context's error, not return a partial set.
func TestGenerateSetShardedWithCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, build, err := synth.Workload("TPC-B")
	if err != nil {
		t.Fatal(err)
	}
	s, err := workload.GenerateSetShardedWith(ctx, build, 1, 0.05, 0, 600, workload.DefaultShardSize, 2)
	if err == nil {
		t.Fatal("cancelled generation returned nil error")
	}
	if s != nil {
		t.Error("cancelled generation returned a partial set")
	}
}
