package workload

import (
	"context"

	"addict/internal/pool"
	"addict/internal/trace"
)

// Sharded trace generation: an N-trace request is split into fixed-size
// shards, each generated by an independent benchmark instance seeded
// deterministically from (seed, shard) via a splittable PRNG step. Shard
// boundaries depend only on N and the shard size — never on the worker
// count — so the merged trace.Set is bit-for-bit identical whether it was
// produced by 1 worker or 64. This is what lets the experiment engine
// (internal/exp) generate traces on a worker pool while keeping every
// reported number byte-stable.

// DefaultShardSize is the number of traces per generation shard. 256 keeps
// the paper-faithful 1000-trace sets at 4-way generation parallelism. It
// does not amortize the fixed per-shard cost: database population is
// still the larger part of every shard. At scale 0.5 on a 2-vCPU host
// (BenchmarkPopulate*, BenchmarkShard, medians of 5 rounds), population
// takes ~23 ms (TPC-E) to ~48 ms (synth:zipf-hot-rw), while the
// ShardWarmup transactions plus the 256 traced ones take the remaining
// ~5 ms (TPC-B) to ~30 ms (TPC-C); population is about half of a TPC-C
// shard and 85% of a TPC-B one. The size is part of the shard recipe, so
// changing it changes the generated traces.
const DefaultShardSize = 256

// ShardWarmup is the number of untraced transactions every shard executes
// before recording — the paper's "after a warm-up period" (Section 4.1).
// A freshly populated database has not yet exercised the accumulated-state
// paths: TPC-B history pages fill every ~150 transactions, and TPC-C's
// order-table B+trees only start splitting steadily after ~400 inserts
// (measured across seeds; the onset is insert-count driven, so it does not
// scale with database size). A 256-transaction warm-up puts every
// DefaultShardSize-wide traced window [256, 512) into steady state. The
// warm-up is part of the deterministic shard recipe: it advances both the
// shard's PRNG and its database identically on every run.
const ShardWarmup = 256

// NumShards returns the number of shards an n-trace request splits into at
// the given shard size (at least 1, so an empty request still carries the
// workload metadata of shard 0).
func NumShards(n, shardSize int) int {
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	if n <= 0 {
		return 1
	}
	return (n + shardSize - 1) / shardSize
}

// ShardSeed derives the deterministic seed of one generation shard from the
// experiment seed. It is a splitmix64 finalization step (the standard
// splittable-PRNG construction): statistically independent streams per
// shard, with no sequential dependency between shards.
func ShardSeed(seed int64, shard int) int64 {
	z := uint64(seed) + (uint64(shard)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Constructor builds one populated benchmark instance. first is the global
// index of the first transaction the instance runs, its warm-up included:
// shard s of a sharded request starts at s*shardSize - ShardWarmup, so its
// traced window continues the global trace stream exactly where the shard
// boundaries place it. Only workloads whose behaviour follows the absolute
// trace index (synthetic phase schedules) read first; the TPC benchmarks
// ignore it. A Constructor must be a pure function of its arguments.
type Constructor func(seed int64, scale float64, first int64) *Benchmark

// shardCounts defaults shardSize and splits an n-trace request into
// per-shard trace counts of at most that size each.
func shardCounts(n, shardSize int) (int, []int) {
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	counts := make([]int, NumShards(n, shardSize))
	remaining := n
	for s := range counts {
		c := shardSize
		if c > remaining {
			c = remaining
		}
		counts[s] = c
		remaining -= c
	}
	return shardSize, counts
}

// warmShard is the shard recipe: shard `shard` is built from
// ShardSeed(seed, shard) at its global start offset, then advanced by
// ShardWarmup untraced transactions (the manager records nowhere).
func warmShard(build Constructor, seed int64, scale float64, shard, shardSize int) *Benchmark {
	b := build(ShardSeed(seed, shard), scale, int64(shard)*int64(shardSize)-ShardWarmup)
	for i := 0; i < ShardWarmup; i++ {
		b.NextTxn()
	}
	return b
}

// GenerateSetShardedWith generates traces [baseShard*shardSize, ...+n) of
// the workload build constructs under the shard recipe (warmShard): each
// shard traces its count of transactions, and the shards merge in shard
// order. Shards run on up to `workers` goroutines; the result depends only
// on (build, seed, scale, baseShard, n, shardSize), never on workers.
// Disjoint trace windows — the paper's "first 1000" vs "next 1000"
// (Section 4.1) — are expressed as disjoint shard ranges via baseShard.
//
// Generation stops between shards once ctx is cancelled, and the call
// returns ctx's error instead of a partial set. A single shard
// (ShardWarmup untraced + up to shardSize traced transactions) is the
// cancellation granularity of every trace-generation pipeline.
//
// shardSize <= 0 selects DefaultShardSize; workers < 1 runs serially.
func GenerateSetShardedWith(ctx context.Context, build Constructor, seed int64, scale float64, baseShard, n, shardSize, workers int) (*trace.Set, error) {
	shardSize, counts := shardCounts(n, shardSize)
	parts := make([]*trace.Set, len(counts))
	err := pool.RunCtx(ctx, workers, len(counts), func(s int) {
		parts[s] = GenerateSet(warmShard(build, seed, scale, baseShard+s, shardSize), counts[s])
	})
	if err != nil {
		return nil, err
	}
	return trace.MergeSets(parts...), nil
}

// StreamSharded generates the same traces as GenerateSetShardedWith but
// hands each one to fn and discards it — the memory-bounded path for the
// stability experiment (Section 4.2), which replays 10x more traces than it
// could hold. Shards are processed serially in shard order, so fn observes
// the same trace sequence the merged set would contain. Once ctx is
// cancelled no further shard is generated and the call returns ctx's error
// (fn has then seen a prefix of the stream).
func StreamSharded(ctx context.Context, build Constructor, seed int64, scale float64, baseShard, n, shardSize int, fn func(i int, t *trace.Trace)) error {
	shardSize, counts := shardCounts(n, shardSize)
	idx := 0
	for s, count := range counts {
		if err := ctx.Err(); err != nil {
			return err
		}
		stream(warmShard(build, seed, scale, baseShard+s, shardSize), count, func(t *trace.Trace) {
			fn(idx, t)
			idx++
		})
	}
	return nil
}
