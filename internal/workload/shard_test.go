package workload_test

import (
	"context"
	"reflect"
	"testing"

	"addict/internal/trace"
	"addict/internal/workload"
	"addict/internal/workload/synth"
)

// generateSharded generates a named workload through the one name resolver
// and the shard recipe.
func generateSharded(name string, seed int64, scale float64, baseShard, n, shardSize, workers int) (*trace.Set, error) {
	_, build, err := synth.Workload(name)
	if err != nil {
		return nil, err
	}
	return workload.GenerateSetShardedWith(context.Background(), build, seed, scale, baseShard, n, shardSize, workers)
}

// TestShardSeedDistinct: neighbouring (seed, shard) pairs must yield
// distinct, well-mixed shard seeds (the splitmix64 step).
func TestShardSeedDistinct(t *testing.T) {
	seen := make(map[int64][2]int64)
	for _, seed := range []int64{0, 1, 42, -7} {
		for shard := 0; shard < 64; shard++ {
			s := workload.ShardSeed(seed, shard)
			if prev, dup := seen[s]; dup {
				t.Fatalf("ShardSeed collision: (%d,%d) and (%d,%d) -> %d", seed, shard, prev[0], prev[1], s)
			}
			seen[s] = [2]int64{seed, int64(shard)}
		}
	}
	if workload.ShardSeed(1, 0) == 1 {
		t.Error("ShardSeed(1, 0) must not pass the seed through unmixed")
	}
}

func TestNumShards(t *testing.T) {
	cases := []struct{ n, size, want int }{
		{0, 128, 1},
		{1, 128, 1},
		{128, 128, 1},
		{129, 128, 2},
		{250, 128, 2},
		{1000, 128, 8},
		{40, 0, 1}, // size 0 selects the default
	}
	for _, c := range cases {
		if got := workload.NumShards(c.n, c.size); got != c.want {
			t.Errorf("NumShards(%d, %d) = %d, want %d", c.n, c.size, got, c.want)
		}
	}
}

// TestShardedGenerationWorkerIndependent is the core determinism guarantee:
// the merged trace set's digest must be identical for every worker count.
func TestShardedGenerationWorkerIndependent(t *testing.T) {
	for _, name := range []string{"TPC-B", "TPC-C", "TPC-E"} {
		ref, err := generateSharded(name, 9, 0.05, 0, 40, 16, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(ref.Traces) != 40 {
			t.Fatalf("%s: got %d traces, want 40", name, len(ref.Traces))
		}
		want := ref.Digest()
		for _, workers := range []int{2, 3, 8} {
			s, err := generateSharded(name, 9, 0.05, 0, 40, 16, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if got := s.Digest(); got != want {
				t.Errorf("%s: digest with %d workers = %#x, want %#x (serial)", name, workers, got, want)
			}
		}
	}
}

// TestShardedGenerationWindowsDisjoint: distinct baseShard ranges must
// produce different traces (the paper's "first 1000" vs "next 1000").
func TestShardedGenerationWindowsDisjoint(t *testing.T) {
	a, err := generateSharded("TPC-B", 9, 0.05, 0, 24, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generateSharded("TPC-B", 9, 0.05, workload.NumShards(24, 8), 24, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() == b.Digest() {
		t.Error("profiling-window and evaluation-window shards produced identical sets")
	}
	if a.Workload != "TPC-B" || len(a.TypeNames) == 0 {
		t.Errorf("merged set lost workload metadata: %+v", a)
	}
}

// TestShardedGenerationValidTraces: merged shard output must satisfy the
// trace structural invariants end to end.
func TestShardedGenerationValidTraces(t *testing.T) {
	s, err := generateSharded("TPC-C", 9, 0.05, 0, 20, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range s.Traces {
		if err := tr.Validate(); err != nil {
			t.Fatalf("trace %d: %v", i, err)
		}
	}
}

func TestShardedGenerationUnknownWorkload(t *testing.T) {
	if _, err := generateSharded("TPC-Z", 1, 1, 0, 10, 8, 2); err == nil {
		t.Error("unknown workload must error")
	}
}

// TestStreamShardedMatchesSet is the oracle for StreamSharded's claim that
// fn observes the same trace sequence the merged set would contain, on a
// later window (baseShard > 0) whose length is not a multiple of the shard
// size. synth:phase-shift's schedule follows the absolute trace index, so
// it also checks that both paths start each shard at the same offset.
func TestStreamShardedMatchesSet(t *testing.T) {
	const seed, scale, base, n, size = 5, 0.02, 3, 21, 8
	for _, name := range []string{"TPC-B", "TPC-C", "TPC-E", "synth:zipf-hot-rw", "synth:uniform-ro", "synth:phase-shift"} {
		_, build, err := synth.Workload(name)
		if err != nil {
			t.Fatal(err)
		}
		set, err := workload.GenerateSetShardedWith(context.Background(), build, seed, scale, base, n, size, 2)
		if err != nil {
			t.Fatal(err)
		}
		var got []*trace.Trace
		err = workload.StreamSharded(context.Background(), build, seed, scale, base, n, size, func(i int, tr *trace.Trace) {
			if i != len(got) {
				t.Fatalf("%s: streamed index %d, want %d", name, i, len(got))
			}
			got = append(got, tr)
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(set.Traces) {
			t.Fatalf("%s: streamed %d traces, set has %d", name, len(got), len(set.Traces))
		}
		for i, tr := range got {
			if !reflect.DeepEqual(tr, set.Traces[i]) {
				t.Errorf("%s: streamed trace %d differs from the set's", name, i)
			}
		}
	}
}
