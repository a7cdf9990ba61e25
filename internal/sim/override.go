package sim

import "fmt"

// Overrides is a sparse set of machine-parameter substitutions for
// sensitivity sweeps (internal/sweep): zero-valued fields keep the base
// configuration's value. Apply validates the substituted configuration and
// recomputes the derived fields, so a sweep axis can vary one knob without
// hand-maintaining the rest of Table 1.
type Overrides struct {
	// Cores substitutes the core count. The shared cache keeps its
	// per-core capacity budget (Table 1: 1MB per core) and one bank per
	// core, unless SharedSizeBytes pins the total explicitly.
	Cores int

	// L1ISizeBytes / L1IWays reshape the private instruction cache —
	// the axis the paper's whole premise is most sensitive to.
	L1ISizeBytes int
	L1IWays      int

	// L1DSizeBytes / L1DWays reshape the private data cache.
	L1DSizeBytes int
	L1DWays      int

	// SharedSizeBytes / SharedWays reshape the shared last-level cache
	// (total capacity, not per-core). SharedSizeBytes takes precedence
	// over the per-core scaling a Cores override would derive.
	SharedSizeBytes int
	SharedWays      int

	// SharedHitCycles / MemCycles substitute the miss latencies.
	SharedHitCycles uint64
	MemCycles       uint64
}

// Apply returns the base configuration with the overrides substituted and
// derived fields recomputed: a Cores change rescales the shared cache to
// the base per-core budget and re-derives the bank count (one bank per
// core, as in Table 1's 16 banks for 16 cores). The result is validated;
// an override that produces an unbuildable machine (non-power-of-two
// geometry, associativity not dividing the blocks) is reported as an
// error rather than a later panic, so sweep specs fail fast at expansion.
func (c Config) Apply(o Overrides) (Config, error) {
	// Negative values are neither "keep" (that is 0) nor buildable —
	// reject them instead of silently keeping the base value.
	for _, v := range []int{o.Cores, o.L1ISizeBytes, o.L1IWays, o.L1DSizeBytes,
		o.L1DWays, o.SharedSizeBytes, o.SharedWays} {
		if v < 0 {
			return Config{}, fmt.Errorf("sim: overrides %+v: negative value", o)
		}
	}
	out := c
	if o.Cores > 0 && o.Cores != c.Cores {
		perCore := c.Shared.SizeBytes / c.Cores
		out.Cores = o.Cores
		out.Shared.SizeBytes = perCore * o.Cores
		out.SharedBanks = o.Cores
	}
	if o.L1ISizeBytes > 0 {
		out.L1I.SizeBytes = o.L1ISizeBytes
	}
	if o.L1IWays > 0 {
		out.L1I.Ways = o.L1IWays
	}
	if o.L1DSizeBytes > 0 {
		out.L1D.SizeBytes = o.L1DSizeBytes
	}
	if o.L1DWays > 0 {
		out.L1D.Ways = o.L1DWays
	}
	if o.SharedSizeBytes > 0 {
		out.Shared.SizeBytes = o.SharedSizeBytes
	}
	if o.SharedWays > 0 {
		out.Shared.Ways = o.SharedWays
	}
	if o.SharedHitCycles > 0 {
		out.SharedHitCycles = o.SharedHitCycles
	}
	if o.MemCycles > 0 {
		out.MemCycles = o.MemCycles
	}
	if err := out.Validate(); err != nil {
		return Config{}, fmt.Errorf("sim: overrides %+v: %w", o, err)
	}
	return out, nil
}
