package workload_test

import (
	"context"
	"testing"

	"addict/internal/workload"
	"addict/internal/workload/synth"
)

// Benchmarks for the generation path the shard recipe pays for on every
// cold trace window: database population (BenchmarkPopulate*, the bulk of
// a shard) and a whole shard — population, ShardWarmup untraced
// transactions and DefaultShardSize traced ones (BenchmarkShard). Both run
// at the session default scale (0.5):
//
//	go test ./internal/workload -run NONE -bench 'Populate|Shard' -benchmem
//
// Add -cpuprofile to see where a regressed phase spends its time.

const benchScale = 0.5

func benchPopulate(b *testing.B, build func() *workload.Benchmark) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if build().Manager().PagesAllocated() == 0 {
			b.Fatal("population allocated no pages")
		}
	}
}

func BenchmarkPopulateTPCB(b *testing.B) {
	benchPopulate(b, func() *workload.Benchmark { return workload.NewTPCB(1, benchScale) })
}

func BenchmarkPopulateTPCC(b *testing.B) {
	benchPopulate(b, func() *workload.Benchmark { return workload.NewTPCC(1, benchScale) })
}

func BenchmarkPopulateTPCE(b *testing.B) {
	benchPopulate(b, func() *workload.Benchmark { return workload.NewTPCE(1, benchScale) })
}

func BenchmarkPopulateSynth(b *testing.B) {
	spec, err := synth.ParseName("synth:zipf-hot-rw")
	if err != nil {
		b.Fatal(err)
	}
	benchPopulate(b, func() *workload.Benchmark {
		w, err := synth.New(spec, 1, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		return w
	})
}

// BenchmarkShard times one whole generation shard per workload: the unit of
// work every sharded trace request is split into.
func BenchmarkShard(b *testing.B) {
	for _, name := range []string{"TPC-B", "TPC-C", "TPC-E", "synth:zipf-hot-rw"} {
		b.Run(name, func(b *testing.B) {
			res, err := workload.Resolve(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				set, err := res.GenerateSharded(context.Background(), 1, benchScale, 0, workload.DefaultShardSize, workload.DefaultShardSize, 1)
				if err != nil {
					b.Fatal(err)
				}
				if len(set.Traces) != workload.DefaultShardSize {
					b.Fatalf("got %d traces, want %d", len(set.Traces), workload.DefaultShardSize)
				}
			}
		})
	}
}
