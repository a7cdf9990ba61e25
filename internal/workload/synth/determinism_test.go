package synth

import (
	"bytes"
	"context"
	"testing"

	"addict/internal/trace"
	"addict/internal/workload"
)

// encode serializes a set so identity checks compare actual bytes, not
// just digests — mirroring the sweep byte-identity contract.
func encode(t *testing.T, s *trace.Set) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteSet(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// generate runs spec's sharded recipe.
func generate(t *testing.T, spec Spec, seed int64, scale float64, baseShard, n, shardSize, workers int) *trace.Set {
	t.Helper()
	build, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := workload.GenerateSetShardedWith(context.Background(), build, seed, scale, baseShard, n, shardSize, workers)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSynthWorkerCountByteIdentity is the subsystem's headline determinism
// guarantee (mirroring TestSweepWorkerCountByteIdentity): sharded
// generation of every preset — including the multi-phase one — must be
// bit-for-bit identical for every worker count.
func TestSynthWorkerCountByteIdentity(t *testing.T) {
	for _, name := range Presets() {
		spec, _ := Preset(name)
		ref := generate(t, spec, 9, 0.02, 0, 40, 16, 1)
		if len(ref.Traces) != 40 {
			t.Fatalf("%s: got %d traces, want 40", name, len(ref.Traces))
		}
		want := encode(t, ref)
		for _, workers := range []int{2, 3, 8} {
			if !bytes.Equal(encode(t, generate(t, spec, 9, 0.02, 0, 40, 16, workers)), want) {
				t.Errorf("%s: output with %d workers diverges from serial", name, workers)
			}
		}
	}
}

// TestSynthShardedWindowsDisjoint: the profiling and evaluation shard
// windows of a synthetic workload must differ, like the TPC path's.
func TestSynthShardedWindowsDisjoint(t *testing.T) {
	spec, _ := Preset("zipf-hot-rw")
	a := generate(t, spec, 9, 0.02, 0, 24, 8, 2)
	b := generate(t, spec, 9, 0.02, workload.NumShards(24, 8), 24, 8, 2)
	if a.Digest() == b.Digest() {
		t.Error("profiling and evaluation windows produced identical synth sets")
	}
	if a.Workload != spec.Name || len(a.TypeNames) == 0 {
		t.Errorf("merged synth set lost metadata: workload %q, %d type names", a.Workload, len(a.TypeNames))
	}
}

// TestSynthPhasePositionIndependentOfSharding: a multi-phase schedule is
// keyed by absolute trace index, so the same global window must carry the
// same phase behavior whether it was generated in one shard or many. The
// phase flip is observable through the op mix: phase A is read-mostly,
// phase B write-heavy.
func TestSynthPhasePositionIndependentOfSharding(t *testing.T) {
	spec, _ := Preset("phase-shift")
	big := generate(t, spec, 4, 0.02, 0, 64, 64, 1)   // one shard
	small := generate(t, spec, 4, 0.02, 0, 64, 16, 4) // four shards
	// Different shard sizes give different per-shard databases and rng
	// streams, so traces differ — but the *phase* at each index must match:
	// compare per-index write-op presence profiles in aggregate windows.
	writes := func(s *trace.Set, lo, hi int) int {
		n := 0
		for _, tr := range s.Traces[lo:hi] {
			for _, op := range tr.Ops() {
				if op.Op == trace.OpUpdateTuple || op.Op == trace.OpInsertTuple {
					n++
				}
			}
		}
		return n
	}
	// Indexes [0, 64) sit inside phase A (first 192 traces): read-mostly
	// under both shardings.
	bigW, smallW := writes(big, 0, 64), writes(small, 0, 64)
	bigOps, smallOps := 0, 0
	for _, tr := range big.Traces {
		bigOps += len(tr.Ops())
	}
	for _, tr := range small.Traces {
		smallOps += len(tr.Ops())
	}
	if f := float64(bigW) / float64(bigOps); f > 0.25 {
		t.Errorf("single-shard phase-A write share %.2f, want read-mostly (< 0.25)", f)
	}
	if f := float64(smallW) / float64(smallOps); f > 0.25 {
		t.Errorf("four-shard phase-A write share %.2f, want read-mostly (< 0.25)", f)
	}
}

// TestSynthPhaseShiftObservable: the write share must actually flip
// between the two phases of the phase-shift preset within one long shard.
func TestSynthPhaseShiftObservable(t *testing.T) {
	spec, _ := Preset("phase-shift")
	b, err := New(spec, 4, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	s := workload.GenerateSet(b, 384) // one full period from index 0
	share := func(lo, hi int) float64 {
		w, n := 0, 0
		for _, tr := range s.Traces[lo:hi] {
			for _, op := range tr.Ops() {
				n++
				if op.Op == trace.OpUpdateTuple || op.Op == trace.OpInsertTuple {
					w++
				}
			}
		}
		return float64(w) / float64(n)
	}
	a, bshare := share(0, 192), share(192, 384)
	if bshare < a+0.2 {
		t.Errorf("phase write shares %.2f -> %.2f: no observable shift", a, bshare)
	}
}
