package workload_test

// The registry test lives in an external test package so it can import
// workload/synth: registering the "synth:" backend is an import side
// effect, and package workload itself must not depend on its backends.

import (
	"context"
	"strings"
	"testing"

	"addict/internal/workload"
	"addict/internal/workload/synth"
)

// TestResolveTPCMatchesDirectPath: the registry's built-in TPC entries must
// produce byte-identical sets to the direct sharded generator.
func TestResolveTPCMatchesDirectPath(t *testing.T) {
	r, err := workload.Resolve("TPC-B")
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.GenerateSharded(context.Background(), 11, 0.05, 0, 30, workload.DefaultShardSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	build, err := workload.Builder("TPC-B")
	if err != nil {
		t.Fatal(err)
	}
	want, err := workload.GenerateSetShardedWith(context.Background(), func(shard int) *workload.Benchmark {
		return build(workload.ShardSeed(11, shard), 0.05)
	}, 0, 30, workload.DefaultShardSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != want.Digest() {
		t.Error("registry TPC-B generation diverges from the shard recipe over workload.Builder")
	}
}

// TestResolveSynthMatchesDirectPath: the registered synth backend must
// produce byte-identical sets to synth.GenerateSetSharded.
func TestResolveSynthMatchesDirectPath(t *testing.T) {
	const name = "synth:zipf-hot-rw+z0.9"
	r, err := workload.Resolve(name)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.GenerateSharded(context.Background(), 7, 0.02, 1, 20, workload.DefaultShardSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := synth.ParseName(name)
	if err != nil {
		t.Fatal(err)
	}
	want, err := synth.GenerateSetSharded(context.Background(), spec, 7, 0.02, 1, 20, workload.DefaultShardSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != want.Digest() {
		t.Error("registry synth generation diverges from synth.GenerateSetSharded")
	}
}

// TestResolveErrors: unknown names and claimed-but-invalid names must both
// fail, the latter with the backend's own diagnosis.
func TestResolveErrors(t *testing.T) {
	if err := workload.Validate("nope"); err == nil {
		t.Error("Validate(nope) = nil, want error")
	}
	err := workload.Validate("synth:not-a-preset")
	if err == nil {
		t.Fatal("Validate(synth:not-a-preset) = nil, want error")
	}
	if !strings.Contains(err.Error(), "not-a-preset") {
		t.Errorf("claimed-name error %q does not name the bad preset", err)
	}
	if err := workload.Validate("synth:uniform-ro"); err != nil {
		t.Errorf("Validate(synth:uniform-ro) = %v", err)
	}
}

// TestResolveBuild: the Build half of a resolved handle compiles a usable
// benchmark for both name spaces.
func TestResolveBuild(t *testing.T) {
	for _, name := range []string{"TPC-B", "synth:uniform-ro"} {
		r, err := workload.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := r.Build(3, 0.02)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s := workload.GenerateSet(b, 3); len(s.Traces) != 3 {
			t.Errorf("%s: generated %d traces, want 3", name, len(s.Traces))
		}
	}
}

// TestGenerateSetShardedWithCtxCancelled: a cancelled context must abort
// generation with the context's error, not return a partial set.
func TestGenerateSetShardedWithCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := workload.Resolve("TPC-B")
	if err != nil {
		t.Fatal(err)
	}
	s, err := r.GenerateSharded(ctx, 1, 0.05, 0, 600, workload.DefaultShardSize, 2)
	if err == nil {
		t.Fatal("cancelled generation returned nil error")
	}
	if s != nil {
		t.Error("cancelled generation returned a partial set")
	}
}
