package synth

import (
	"context"

	"addict/internal/trace"
	"addict/internal/workload"
)

// The synthetic-workload backend registers its encoded name space
// ("synth:<preset>[+z<theta>][+w<frac>][+h<keys>]") with the workload-name
// registry, so every by-name consumer (sweep grids, bench configs,
// cmd/tracegen, the facade) resolves synthetic names through the same
// funnel as the TPC benchmarks. Importing this package is what plugs the
// name space in.
func init() {
	workload.Register(workload.Source{
		Name: "synth:",
		Owns: IsName,
		Resolve: func(name string) (workload.Resolved, error) {
			spec, err := ParseName(name)
			if err != nil {
				return workload.Resolved{}, err
			}
			return workload.Resolved{
				Build: func(seed int64, scale float64) (*workload.Benchmark, error) {
					return New(spec, seed, scale)
				},
				GenerateSharded: func(ctx context.Context, seed int64, scale float64, baseShard, n, shardSize, workers int) (*trace.Set, error) {
					return GenerateSetSharded(ctx, spec, seed, scale, baseShard, n, shardSize, workers)
				},
			}, nil
		},
	})
}
