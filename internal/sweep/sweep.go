// Package sweep implements the parameter-sweep subsystem: a declarative
// grid over machine parameters (L1-I/LLC geometry, core count, miss
// latencies), workloads — the TPC benchmarks and synthetic scenarios
// (internal/workload/synth), with dedicated axes for skew exponent, write
// fraction, and hot-set size — scheduling mechanisms, thread counts, and
// admission limits, expanded into experiment units and executed on the
// shared worker pool with the same determinism guarantees as the figure
// pipeline (internal/exp). It answers the sensitivity questions the paper's
// fixed Table-1 setup leaves open — how the SLICC/STREX/ADDICT wins move as
// the instruction cache, the core count, and the offered load scale — and
// is the execution path the figure runners are thin presets over.
//
// A Spec expands into Units in a fixed documented axis order; each unit
// carries a stable ID derived from its own parameter values alone, so
// results are joinable across runs and grids. Results stream through
// pluggable emitters (aligned text, CSV, JSON lines); output is
// byte-identical for every worker count.
package sweep

import (
	"fmt"
	"strings"

	"addict/internal/sched"
	"addict/internal/sim"
	"addict/internal/workload/synth"
)

// Spec is a declarative sweep grid. The axis fields each list the values
// one parameter takes; the expansion is their cartesian product. An empty
// axis means "the base value" (a single point): empty Workloads selects the
// paper's three benchmarks, empty Mechanisms the paper's four, empty
// machine axes the base machine's Table-1 values, empty Threads/AdmitLimits
// the mechanism defaults. The struct is JSON-serializable for spec files
// (cmd/addict-sweep -spec).
type Spec struct {
	// Seed drives all workload randomness (0 selects 42, the repo default).
	Seed int64 `json:"seed,omitempty"`
	// Scale scales the database populations (0 selects 0.5, the quick
	// default — sweeps multiply unit counts, so the base cost matters).
	Scale float64 `json:"scale,omitempty"`
	// ProfileTraces / EvalTraces size the profiling and evaluation trace
	// windows (0 selects 250 each, the QuickParams sizes).
	ProfileTraces int `json:"profile_traces,omitempty"`
	EvalTraces    int `json:"eval_traces,omitempty"`
	// Deep selects the Section 4.6 deeper hierarchy as the base machine.
	Deep bool `json:"deep,omitempty"`

	// Workloads lists benchmark names: "TPC-B", "TPC-C", "TPC-E", or
	// encoded synthetic workloads ("synth:<preset>[+z<theta>][+w<frac>]
	// [+h<keys>]", see internal/workload/synth).
	Workloads []string `json:"workloads,omitempty"`

	// Synth selects a shipped synthetic-workload preset; the three synth
	// axes below vary it, and every (theta, write fraction, hot-set size)
	// combination appends one encoded workload name to the workload axis —
	// after the explicit Workloads, theta outermost, hot-set size
	// innermost. An empty synth axis keeps the preset's own value. Setting
	// Synth with no Workloads sweeps only the synthetic variants (the TPC
	// default trio is not dragged in).
	Synth string `json:"synth,omitempty"`
	// SynthThetas sweeps the zipfian skew exponent, each value in (0, 1).
	SynthThetas []float64 `json:"synth_thetas,omitempty"`
	// SynthWriteFracs sweeps the base write fraction, each value in [0, 1].
	SynthWriteFracs []float64 `json:"synth_write_fracs,omitempty"`
	// SynthHotKeys sweeps the hot-set size (selects the hotset
	// distribution), each value >= 1.
	SynthHotKeys []int `json:"synth_hot_keys,omitempty"`
	// Mechanisms lists scheduling mechanisms by name, resolved through
	// sched.ParseMechanism — any of sched.AllMechanisms ("Baseline",
	// "STREX", "SLICC", "ADDICT", "HTMSPEC", "CHAIN"), case-insensitive.
	Mechanisms []string `json:"mechanisms,omitempty"`

	// Machine axes (see sim.Overrides for the derived-field rules).
	L1ISizes        []int    `json:"l1i_sizes,omitempty"` // bytes
	L1IWays         []int    `json:"l1i_ways,omitempty"`
	SharedSizes     []int    `json:"shared_sizes,omitempty"` // bytes, total
	SharedWays      []int    `json:"shared_ways,omitempty"`
	Cores           []int    `json:"cores,omitempty"`
	SharedHitCycles []uint64 `json:"shared_hit_cycles,omitempty"`
	MemCycles       []uint64 `json:"mem_cycles,omitempty"`

	// Threads sweeps the batch size — the number of same-type transactions
	// batched together, i.e. the offered concurrency (0 = core count).
	Threads []int `json:"threads,omitempty"`
	// AdmitLimits sweeps the admission cap independently of the batch size
	// (0 = the mechanism default).
	AdmitLimits []int `json:"admit_limits,omitempty"`
}

// Unit is one expanded experiment: a fully resolved (workload, mechanism,
// machine, load) point plus the stable ID it is keyed by.
type Unit struct {
	// ID is derived from the unit's own parameter values alone — never
	// from its position in the grid — so it is stable across grid
	// reorderings and joinable across runs.
	ID        string
	Workload  string
	Mechanism sched.Mechanism
	Machine   sim.Config
	// Threads is the batch size / offered concurrency (0 = core count).
	Threads int
	// Admit is the admission cap (0 = mechanism default).
	Admit int
}

// NewUnit resolves one sweep point into a unit with its stable ID — the
// constructor the figure presets in internal/exp use to route their replays
// through the sweep execution path.
func NewUnit(workload string, mech sched.Mechanism, machine sim.Config, threads, admit int) Unit {
	u := Unit{
		Workload:  workload,
		Mechanism: mech,
		Machine:   machine,
		Threads:   threads,
		Admit:     admit,
	}
	u.ID = u.id()
	return u
}

// sizeLabel renders a byte count compactly ("32K", "16M", "768").
func sizeLabel(bytes int) string {
	switch {
	case bytes >= 1<<20 && bytes%(1<<20) == 0:
		return fmt.Sprintf("%dM", bytes>>20)
	case bytes >= 1<<10 && bytes%(1<<10) == 0:
		return fmt.Sprintf("%dK", bytes>>10)
	default:
		return fmt.Sprintf("%d", bytes)
	}
}

// hierarchyLabel names a machine's cache depth ("shallow" or "deep") —
// shared by unit IDs and the machine-readable emitter rows.
func hierarchyLabel(m sim.Config) string {
	if m.PrivateL2 != nil {
		return "deep"
	}
	return "shallow"
}

// id derives the stable unit ID from the unit's parameter values.
func (u Unit) id() string {
	m := u.Machine
	return fmt.Sprintf("%s/%s/c%d/%s/l1i%s.%d/llc%s.%d/hit%d/mem%d/t%d/a%d",
		u.Workload, u.Mechanism, m.Cores, hierarchyLabel(m),
		sizeLabel(m.L1I.SizeBytes), m.L1I.Ways,
		sizeLabel(m.Shared.SizeBytes), m.Shared.Ways,
		m.SharedHitCycles, m.MemCycles, u.Threads, u.Admit)
}

// Default axis values.
var (
	defaultWorkloads  = []string{"TPC-B", "TPC-C", "TPC-E"}
	defaultMechanisms = []string{
		string(sched.Baseline), string(sched.STREX),
		string(sched.SLICC), string(sched.ADDICT),
	}
)

// Resolved returns the spec with every unset base parameter filled in
// (seed, scale, trace windows, default workload and mechanism axes) — the
// canonical form two processes must agree on before they can rendezvous on
// one grid: a coordinator resolves once and ships the resolved spec, so a
// worker expanding it lands on exactly the same units and the same
// artifact-store addresses. Resolving is idempotent. The workload axis
// defaults to the TPC trio only when no synthetic preset is selected: a
// synth-only sweep should not drag the three TPC populations in.
func (s Spec) Resolved() Spec {
	if s.Seed == 0 {
		s.Seed = 42
	}
	if s.Scale == 0 {
		s.Scale = 0.5
	}
	if s.ProfileTraces == 0 {
		s.ProfileTraces = 250
	}
	if s.EvalTraces == 0 {
		s.EvalTraces = 250
	}
	if len(s.Workloads) == 0 && s.Synth == "" {
		s.Workloads = defaultWorkloads
	}
	if len(s.Mechanisms) == 0 {
		s.Mechanisms = defaultMechanisms
	}
	return s
}

// synthNames expands the synthetic-workload axes into encoded workload
// names; ExpandOn validates and canonicalizes them with the rest of the
// workload axis.
func (s Spec) synthNames() ([]string, error) {
	if s.Synth == "" {
		if len(s.SynthThetas)+len(s.SynthWriteFracs)+len(s.SynthHotKeys) > 0 {
			return nil, fmt.Errorf("sweep: synth axes set without a synth preset")
		}
		return nil, nil
	}
	if _, ok := synth.Preset(s.Synth); !ok {
		return nil, fmt.Errorf("sweep: unknown synth preset %q (have %s)",
			s.Synth, strings.Join(synth.Presets(), ", "))
	}
	// Internal absent-override sentinels (0 for theta and hot-set size, -1
	// for the write fraction, where 0 is meaningful); validate() has
	// already rejected them as explicit axis values.
	thetas, writes, hots := s.SynthThetas, s.SynthWriteFracs, s.SynthHotKeys
	if len(thetas) == 0 {
		thetas = []float64{0}
	}
	if len(writes) == 0 {
		writes = []float64{-1}
	}
	if len(hots) == 0 {
		hots = []int{0}
	}
	var names []string
	for _, z := range thetas {
		for _, w := range writes {
			for _, h := range hots {
				names = append(names, synth.EncodeName(s.Synth, z, w, h))
			}
		}
	}
	return names, nil
}

// baseMachine returns the spec's base machine configuration.
func (s Spec) baseMachine() sim.Config {
	if s.Deep {
		return sim.Deep()
	}
	return sim.Shallow()
}

// orZero returns the axis values, or the single zero-element (= "base
// value") when the axis is empty.
func orZero[T any](axis []T) []T {
	if len(axis) == 0 {
		return make([]T, 1)
	}
	return axis
}

// Expand resolves the grid into units: the cartesian product of every axis,
// in the fixed nesting order workload (outermost), mechanism, L1-I size,
// L1-I ways, LLC size, LLC ways, cores, LLC hit latency, memory latency,
// threads, admit (innermost). The workload axis is the explicit Workloads
// followed by the synthetic-preset variants (theta outermost, write
// fraction, hot-set size innermost). The order is part of the contract: it
// decides the emission order of every run over the same spec. Machine
// overrides are validated at expansion, so an unbuildable grid point fails
// here instead of mid-run, and every workload name is resolved there to
// its canonical spelling (synth.Workload), which the units carry.
func (s Spec) Expand() ([]Unit, error) {
	return s.ExpandOn(s.baseMachine())
}

// validate rejects values the downstream layers would otherwise silently
// clamp or treat as "keep the base value": a 0 (or negative) in an explicit
// machine axis is a spec mistake, not a request for the base machine, and a
// negative scale or trace count would produce a degenerate near-empty
// workload whose metrics look like real results. Called after Resolved,
// so zero base parameters have already been replaced.
func (s Spec) validate() error {
	if s.Scale <= 0 {
		return fmt.Errorf("sweep: scale %v is not positive", s.Scale)
	}
	if s.ProfileTraces <= 0 {
		return fmt.Errorf("sweep: profile_traces %d is not positive", s.ProfileTraces)
	}
	if s.EvalTraces <= 0 {
		return fmt.Errorf("sweep: eval_traces %d is not positive", s.EvalTraces)
	}
	pos := func(name string, vals []int) error {
		for _, v := range vals {
			if v <= 0 {
				return fmt.Errorf("sweep: axis %s: value %d is not positive", name, v)
			}
		}
		return nil
	}
	posU := func(name string, vals []uint64) error {
		for _, v := range vals {
			if v == 0 {
				return fmt.Errorf("sweep: axis %s: value 0 is not positive", name)
			}
		}
		return nil
	}
	nonNeg := func(name string, vals []int) error {
		for _, v := range vals {
			if v < 0 {
				return fmt.Errorf("sweep: axis %s: value %d is negative", name, v)
			}
		}
		return nil
	}
	checks := []error{
		pos("l1i_sizes", s.L1ISizes), pos("l1i_ways", s.L1IWays),
		pos("shared_sizes", s.SharedSizes), pos("shared_ways", s.SharedWays),
		pos("cores", s.Cores),
		posU("shared_hit_cycles", s.SharedHitCycles), posU("mem_cycles", s.MemCycles),
		// 0 is meaningful for the load axes (= mechanism default).
		nonNeg("threads", s.Threads), nonNeg("admit_limits", s.AdmitLimits),
		pos("synth_hot_keys", s.SynthHotKeys),
	}
	for _, err := range checks {
		if err != nil {
			return err
		}
	}
	// Positive phrasing so NaN (every comparison false) is rejected too.
	for _, v := range s.SynthThetas {
		if !(v > 0 && v < 1) {
			return fmt.Errorf("sweep: axis synth_thetas: value %v outside (0, 1)", v)
		}
	}
	for _, v := range s.SynthWriteFracs {
		if !(v >= 0 && v <= 1) {
			return fmt.Errorf("sweep: axis synth_write_fracs: value %v outside [0, 1]", v)
		}
	}
	return nil
}

// ExpandOn expands the grid over an explicit base machine instead of the
// spec's Deep/Shallow selection — the hook the figure presets in
// internal/exp use to sweep on the experiment run's own machine.
func (s Spec) ExpandOn(base sim.Config) ([]Unit, error) {
	s = s.Resolved()
	if err := s.validate(); err != nil {
		return nil, err
	}
	synthNames, err := s.synthNames()
	if err != nil {
		return nil, err
	}
	workloads := append(append([]string{}, s.Workloads...), synthNames...)
	for i, w := range workloads {
		canon, _, err := synth.Workload(w)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		workloads[i] = canon
	}
	var units []Unit
	for _, w := range workloads {
		for _, mechName := range s.Mechanisms {
			mech, err := mechanismByName(mechName)
			if err != nil {
				return nil, err
			}
			for _, l1iSize := range orZero(s.L1ISizes) {
				for _, l1iWays := range orZero(s.L1IWays) {
					for _, llcSize := range orZero(s.SharedSizes) {
						for _, llcWays := range orZero(s.SharedWays) {
							for _, cores := range orZero(s.Cores) {
								for _, hit := range orZero(s.SharedHitCycles) {
									for _, mem := range orZero(s.MemCycles) {
										o := sim.Overrides{
											Cores:           cores,
											L1ISizeBytes:    l1iSize,
											L1IWays:         l1iWays,
											SharedSizeBytes: llcSize,
											SharedWays:      llcWays,
											SharedHitCycles: hit,
											MemCycles:       mem,
										}
										machine, err := base.Apply(o)
										if err != nil {
											return nil, fmt.Errorf("sweep: %w", err)
										}
										for _, threads := range orZero(s.Threads) {
											for _, admit := range orZero(s.AdmitLimits) {
												units = append(units, NewUnit(w, mech, machine, threads, admit))
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return units, nil
}

// mechanismByName resolves a mechanism axis value across every
// implemented family, with sched's nearest-name suggestion on a typo.
func mechanismByName(name string) (sched.Mechanism, error) {
	m, err := sched.ParseMechanism(name)
	if err != nil {
		return "", fmt.Errorf("sweep: %w", err)
	}
	return m, nil
}
