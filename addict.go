// Package addict is the public API of the ADDICT reproduction: advanced
// instruction chasing for transactions (Tözün, Atta, Ailamaki, Moshovos —
// PVLDB 7(14), 2014).
//
// The package wires together the reproduction's subsystems — the
// instrumented storage manager, the TPC workloads, Algorithm 1/2 (migration
// point discovery and core assignment), the scheduling mechanisms (the
// paper's four plus two related-work extensions), and the multicore timing
// simulator — behind a small facade. The typical
// pipeline is:
//
//	eng := addict.NewEngine(addict.WithTraceWindows(1000, 1000, 10000))
//	ctx := context.Background()
//	base, _ := eng.Schedule(ctx, addict.Baseline, "TPC-C")
//	res, _ := eng.Schedule(ctx, addict.ADDICT, "TPC-C") // profiles, then replays
//	fmt.Printf("L1-I MPKI: %.2f -> %.2f\n",
//		base.Machine.MPKI(base.Machine.L1IMisses),
//		res.Machine.MPKI(res.Machine.L1IMisses))
//
// # Sessions and cancellation
//
// Engine is the package's session type: one long-lived artifact cache
// (trace windows, Algorithm 1 profiles, per-mechanism replay results)
// serving many requests, built once with functional options (WithWorkers,
// WithMachine, WithSeed, WithScale, WithTraceWindows, WithProgress). Every
// Engine method is context-first and cancellable between work items —
// generation shards, sweep units, bench cells, experiment sections — so a
// Ctrl-C (via signal.NotifyContext, as all four cmds wire it) unwinds a
// pipeline promptly with a clean partial result. Each operation has one
// entry point; DESIGN.md §8 maps the free functions removed from earlier
// versions to their Engine replacements.
//
// # Parallel experiment engine
//
// Engine.Experiments runs the evaluation harness either serially (one
// worker) or on a bounded worker pool; the two produce byte-identical
// reports. The determinism guarantee rests on three legs: trace generation
// is sharded — an N-trace request splits into fixed-size shards, each
// produced by an independent benchmark instance seeded from (seed, shard)
// by a splittable PRNG, so the merged set never depends on the worker
// count; shared artifacts (trace sets, profiles, replay results) are
// single-flight memoized in one concurrency-safe session cache; and the
// simulator itself is a deterministic discrete-event engine with a total
// (time, thread-ID) order. Engine.ScheduleAll and Engine.ScheduleSet
// replay under the paper's four mechanisms concurrently, and
// Engine.GenerateTraces exposes the worker-count-independent trace
// generator; cmd/addict-bench drives the pool via its -parallel flag.
//
// # Parameter sweeps
//
// Engine.Sweep executes a declarative sensitivity grid (SweepSpec) — axes
// over machine parameters, workloads, mechanisms, thread counts, and
// admission limits — on the same pool with the same byte-identity
// guarantee, streaming results as an aligned table, CSV, or JSON lines.
// The figure pipeline and the sweep pipeline share one execution path (the
// figure runners are presets over sweep units); cmd/addict-sweep is the
// CLI.
//
// # Synthetic workloads
//
// Beyond the three TPC mixes, SynthBenchmark compiles a declarative
// SynthSpec — table count/sizes, uniform/zipfian/hot-set key skew,
// read/write mix, ops-per-transaction distribution, transaction-type count
// with shared or private code paths, and multi-phase schedules that shift
// skew and mix mid-trace — into an ordinary Workload over a generated
// population. Synthetic workloads are addressable by encoded name
// ("synth:<preset>[+z<theta>][+w<frac>][+h<keys>]", see
// ParseSynthWorkload) in sweep grids, bench configs, and cmd/tracegen
// -synth; generation is sharded and byte-identical for every worker count
// (Engine.SynthTraces), phase schedules included.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every table and figure.
package addict

import (
	"io"
	"sort"

	"addict/internal/bench"
	"addict/internal/codemap"
	"addict/internal/core"
	"addict/internal/exp"
	"addict/internal/pool"
	"addict/internal/power"
	"addict/internal/sched"
	"addict/internal/sim"
	"addict/internal/stats"
	"addict/internal/storage"
	"addict/internal/store"
	"addict/internal/sweep"
	"addict/internal/trace"
	"addict/internal/workload"
	"addict/internal/workload/synth"
)

// Workload is a populated benchmark that generates transaction traces.
type Workload = workload.Benchmark

// TxnSpec declares one transaction type of a custom workload's mix.
type TxnSpec = workload.TxnSpec

// TraceSet is an ordered collection of transaction traces.
type TraceSet = trace.Set

// Trace is one transaction's recorded execution.
type Trace = trace.Trace

// Profile is Algorithm 1's output: per-(transaction type, operation)
// migration points.
type Profile = core.Profile

// Assignment is Algorithm 2's output: a core map per transaction type.
type Assignment = core.Assignment

// Mechanism names a scheduling mechanism.
type Mechanism = sched.Mechanism

// The evaluated scheduling mechanisms: the paper's four (Section 4.1) plus
// the two related-work extensions (see internal/sched's package doc for
// provenance and DESIGN.md §12 for the mechanism reference).
const (
	Baseline = sched.Baseline
	STREX    = sched.STREX
	SLICC    = sched.SLICC
	ADDICT   = sched.ADDICT
	HTMSPEC  = sched.HTMSPEC
	CHAIN    = sched.CHAIN
)

// Mechanisms lists the paper's four mechanisms in its presentation order —
// the figure experiments' evaluation axis (and Engine.ScheduleAll's).
var Mechanisms = sched.Mechanisms

// AllMechanisms lists every implemented mechanism family: the paper's four
// plus HTMSPEC and CHAIN. Name-resolving entry points (sweep grids, the
// serving API, ParseMechanism) accept this set.
var AllMechanisms = sched.AllMechanisms

// ParseMechanism resolves a mechanism name (any letter case, any of
// AllMechanisms) to its canonical constant; unknown names get a
// nearest-name suggestion.
func ParseMechanism(name string) (Mechanism, error) { return sched.ParseMechanism(name) }

// SpecStats are HTMSPEC's speculation counters (Result.Spec); all-zero for
// the non-speculative mechanisms.
type SpecStats = sim.SpecStats

// MachineConfig describes the simulated multicore (Table 1).
type MachineConfig = sim.Config

// Result is the outcome of replaying a trace set under a mechanism.
type Result = sim.Result

// PowerReport is the McPAT-substitute power analysis (Figure 8b).
type PowerReport = power.Report

// StorageManager is the instrumented mini-Shore-MT storage manager; use it
// to build custom workloads (tables, B+tree indexes, the five database
// operations).
type StorageManager = storage.Manager

// Table is a storage-manager table.
type Table = storage.Table

// Txn is a storage-manager transaction context.
type Txn = storage.Txn

// ExperimentParams scopes the evaluation harness.
type ExperimentParams = exp.Params

// CacheStats is a snapshot of a session artifact cache's counters:
// resident bytes (weight estimates), entries, hits, misses, evictions for
// the in-memory layer, plus — when the session has an on-disk artifact
// store attached (WithStore) — the store's hit/miss/write/verify-failure
// and GC counters. The embedded in-memory counters keep the historical
// wire shape; Store marshals as a nested "store" object and is omitted on
// memory-only sessions.
type CacheStats struct {
	pool.CacheStats
	Store *StoreStats `json:"store,omitempty"`
}

// StoreStats is a snapshot of an on-disk artifact store's counters: hits,
// misses, writes, verify failures (corrupt entries quarantined and
// recomputed), GC evictions, write errors, and the resident entry set.
type StoreStats = store.Stats

// NewTPCB builds and populates the TPC-B benchmark (scale 1.0 ≈ 160k
// accounts).
func NewTPCB(seed int64, scale float64) *Workload { return workload.NewTPCB(seed, scale) }

// NewTPCC builds and populates the TPC-C benchmark (scale 1.0 ≈ 60k
// customers, 2 warehouses).
func NewTPCC(seed int64, scale float64) *Workload { return workload.NewTPCC(seed, scale) }

// NewTPCE builds and populates the TPC-E benchmark (scale 1.0 ≈ 2000
// customers, 20k initial trades).
func NewTPCE(seed int64, scale float64) *Workload { return workload.NewTPCE(seed, scale) }

// NewWorkload builds a benchmark by name: the TPC names ("TPC-B",
// "TPC-C", "TPC-E") or an encoded synthetic workload
// ("synth:<preset>[+z<theta>][+w<frac>][+h<keys>]"). One name resolver
// backs every by-name consumer (sweep grids, bench configs, cmd/tracegen,
// the serving daemon, this facade), so a name accepted anywhere is
// accepted everywhere.
func NewWorkload(name string, seed int64, scale float64) (*Workload, error) {
	_, build, err := synth.Workload(name)
	if err != nil {
		return nil, err
	}
	return build(seed, scale, 0), nil
}

// NewStorageManager returns a storage manager on the standard code layout,
// ready for table creation and population — the substrate for custom
// workloads.
func NewStorageManager() *StorageManager {
	return storage.NewManager(codemap.NewLayout())
}

// NewCustomWorkload assembles a workload from transaction specs over a
// populated storage manager. The specs are validated: an empty list, a
// missing Run, a duplicate name, a negative weight, or an all-zero weight
// total is an error.
func NewCustomWorkload(name string, m *StorageManager, seed int64, specs []TxnSpec) (*Workload, error) {
	return workload.NewCustom(name, m, seed, specs)
}

// SynthSpec declares a synthetic workload: table count and sizes, key-skew
// distribution (uniform/zipfian/hot-set), read/write mix, ops-per-
// transaction distribution, transaction-type count with shared or private
// code paths, and multi-phase schedules that shift skew and mix mid-trace.
// The zero value of every field selects a documented default; see
// internal/workload/synth.
type SynthSpec = synth.Spec

// SynthSkew declares a key-skew distribution within a SynthSpec.
type SynthSkew = synth.Skew

// SynthPhase is one window of a SynthSpec's cyclic phase schedule.
type SynthPhase = synth.Phase

// SynthPresets lists the shipped synthetic-workload preset names, sorted
// ("hotset-write", "long-txn", "phase-shift", "uniform-ro", "zipf-hot-rw").
func SynthPresets() []string { return synth.Presets() }

// ParseSynthWorkload resolves an encoded synthetic workload name —
// "synth:<preset>" with optional "+z<theta>"/"+w<frac>"/"+h<keys>"
// overrides, or a bare preset name — into its spec. These names are
// accepted wherever workloads travel by name: sweep grids (SweepSpec),
// bench configs (BenchConfig.Workloads), and cmd/tracegen -synth.
func ParseSynthWorkload(name string) (SynthSpec, error) { return synth.ParseName(name) }

// SynthBenchmark compiles a synthetic-workload spec into a populated
// benchmark, deterministic in (spec, seed, scale) — the synthetic
// counterpart of NewTPCB/NewTPCC/NewTPCE.
func SynthBenchmark(spec SynthSpec, seed int64, scale float64) (*Workload, error) {
	return synth.New(spec, seed, scale)
}

// GenerateTraces collects n transaction traces from the workload.
func GenerateTraces(w *Workload, n int) *TraceSet { return workload.GenerateSet(w, n) }

// StreamTraces generates n traces one at a time without retaining them —
// the memory-bounded path for large stability runs.
func StreamTraces(w *Workload, n int, fn func(i int, t *Trace)) { workload.Stream(w, n, fn) }

// FindMigrationPoints runs Algorithm 1 over profiling traces with the
// Table 1 L1-I geometry and the storage manager's no-migrate zones
// (Section 3.1.3).
func FindMigrationPoints(s *TraceSet) *Profile {
	lay := codemap.NewLayout()
	cfg := core.ProfileConfig{L1I: sim.Shallow().L1I, NoMigrate: lay.NoMigrate}
	return core.FindMigrationPoints(s, cfg)
}

// ShallowMachine returns the Table 1 configuration.
func ShallowMachine() MachineConfig { return sim.Shallow() }

// DeepMachine returns the Section 4.6 deeper hierarchy.
func DeepMachine() MachineConfig { return sim.Deep() }

// Options configures Schedule.
type Options struct {
	// Machine is the simulated hardware; zero value = Table 1.
	Machine *MachineConfig
	// Profile supplies ADDICT's migration points (required for ADDICT).
	Profile *Profile
	// BatchSize overrides the same-type batch size (0 = number of cores).
	BatchSize int
}

// Schedule replays a trace set under the given mechanism and returns the
// simulation result.
func Schedule(mech Mechanism, s *TraceSet, opts Options) (Result, error) {
	machine := sim.Shallow()
	if opts.Machine != nil {
		machine = *opts.Machine
	}
	return sched.Run(mech, s, sched.Config{Machine: machine, BatchSize: opts.BatchSize, Profile: opts.Profile})
}

// AnalyzePower computes the activity-based power report of a run.
func AnalyzePower(r Result) PowerReport { return power.Analyze(r, power.DefaultWeights()) }

// DefaultExperimentParams returns the paper-faithful evaluation setup
// (1000 profiling + 1000 evaluation traces, 10000 for stability).
func DefaultExperimentParams() ExperimentParams { return exp.DefaultParams() }

// QuickExperimentParams returns a reduced setup for fast runs.
func QuickExperimentParams() ExperimentParams { return exp.QuickParams() }

// ExperimentIDs lists the available experiment ids, sorted.
func ExperimentIDs() []string {
	ids := exp.IDs()
	sort.Strings(ids)
	return ids
}

// SweepSpec is a declarative parameter-sweep grid: axes over machine
// parameters (L1-I/LLC geometry, core count, miss latencies), workloads,
// mechanisms, thread counts, and admission limits. Empty axes take the base
// values; see internal/sweep for the expansion contract.
type SweepSpec = sweep.Spec

// SweepUnit is one expanded sweep point, keyed by a stable ID derived from
// its parameter values.
type SweepUnit = sweep.Unit

// SweepMetrics are the per-unit outcomes a sweep reports.
type SweepMetrics = sweep.Metrics

// SweepFormats lists the built-in sweep output formats ("table", "csv",
// "jsonl").
var SweepFormats = sweep.Formats

// MeasureSweepMetrics reduces a replay result to the sweep metrics — the
// serving daemon's wire form for Schedule outcomes, so a schedule reply
// and a sweep row report identical quantities.
func MeasureSweepMetrics(r Result) SweepMetrics { return sweep.Measure(r) }

// ValidateWorkload resolves a workload name ("TPC-B", "TPC-C", "TPC-E", or
// an encoded "synth:" name) without building anything and returns its
// canonical spelling — the cheap pre-flight check for servers that want to
// reject unknown names before admitting a run, and key their caches on one
// spelling per workload.
func ValidateWorkload(name string) (string, error) {
	canon, _, err := synth.Workload(name)
	return canon, err
}

// ExpandSweep resolves a sweep grid into its units without running them —
// for previewing unit counts and IDs before committing to a long sweep.
func ExpandSweep(spec SweepSpec) ([]SweepUnit, error) { return spec.Expand() }

// BenchConfig scopes what a replay-core benchmark harness run measures
// (see internal/bench); the seed, scale and trace windows are the
// session's. The zero value selects the standard cells and measurement
// bounds (DefaultBenchConfig), which every BENCH_*.json trajectory point
// uses, on a default-sized session, so reports stay comparable across PRs.
type BenchConfig = bench.Config

// BenchReport is one full benchmark-harness run: per mechanism × workload
// replay throughput and allocation behavior, plus the aggregate replay
// summary.
type BenchReport = bench.Report

// BenchFile is the on-disk BENCH_*.json layout: a current report, an
// optional recorded baseline, and the events/sec speedup between them.
type BenchFile = bench.File

// DefaultBenchConfig returns the standard benchmark-harness setup.
func DefaultBenchConfig() BenchConfig { return bench.DefaultConfig() }

// BenchGateConfig scopes a bench regression gate: a per-cell budget on
// machine-independent normalized ratios (the primary check) and an
// aggregate events/sec budget (the secondary, machine-dependent check).
type BenchGateConfig = bench.GateConfig

// BenchVerdict is a structured gate verdict: the per-cell table (raw
// speedup, normalized ratio, floor, pass/fail), the worst cell, and the
// aggregate check.
type BenchVerdict = bench.Verdict

// CompareBench pairs a current report with a recorded baseline (nil for
// none) into the on-disk bench-file layout, computing the aggregate and
// per-cell speedups. Baselines that did not measure the same thing — a
// different seed/scale/trace window, different measurement bounds, or a
// different (workload × mechanism) cell set — are refused.
func CompareBench(baseline, current *BenchReport) (*BenchFile, error) {
	return bench.Compare(baseline, current)
}

// GateBenchReports evaluates the per-cell, machine-independent regression
// gate between two recorded reports: every cell's events/sec is normalized
// by the same report's Baseline-mechanism cell on the same workload, so
// the recording machines' absolute speed cancels out of the gated ratio,
// and the gate fails on the worst cell rather than the aggregate. The
// error covers pairs that cannot be judged (incomparable reports, missing
// reference cells); a judged regression is a Verdict with Pass == false.
func GateBenchReports(baseline, current *BenchReport, cfg BenchGateConfig) (*BenchVerdict, error) {
	return bench.Gate(baseline, current, cfg)
}

// ReadBenchFile parses a BENCH_*.json file (or a bare report).
func ReadBenchFile(r io.Reader) (*BenchFile, error) { return bench.ReadFile(r) }

// WriteTraces serializes a trace set in the binary trace format.
func WriteTraces(w io.Writer, s *TraceSet) error { return trace.WriteSet(w, s) }

// ReadTraces deserializes a trace set.
func ReadTraces(r io.Reader) (*TraceSet, error) { return trace.ReadSet(r) }

// WriteProfile persists Algorithm 1's output — the paper's static Step 1,
// "performed a priori", so serving starts with migration points already in
// hand (Section 3.1.3).
func WriteProfile(w io.Writer, p *Profile) error { return core.WriteProfile(w, p) }

// ReadProfile reloads a persisted profile.
func ReadProfile(r io.Reader) (*Profile, error) { return core.ReadProfile(r) }

// ScheduleOnline is ADDICT's pure-dynamic deployment: the first rampUp
// transactions run under traditional scheduling while Algorithm 1 profiles
// them, then the rest migrate over the learned points (Section 3.1.3).
// Returns the combined run and the learned profile.
func ScheduleOnline(s *TraceSet, rampUp int, opts Options) (Result, *Profile, error) {
	machine := sim.Shallow()
	if opts.Machine != nil {
		machine = *opts.Machine
	}
	cfg := sched.Config{Machine: machine, BatchSize: opts.BatchSize}
	return sched.RunOnline(s, cfg, rampUp, codemap.NewLayout().NoMigrate)
}

// OverlapBuckets computes the Figure 2 frequency-bucket shares for a group
// of per-instance footprints.
func OverlapBuckets(footprints []map[uint64]struct{}) stats.OverlapResult {
	return stats.Overlap(footprints)
}
