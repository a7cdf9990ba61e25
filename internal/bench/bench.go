// Package bench is the replay-core benchmark harness: it measures replay
// throughput (events/sec, ns/event) and allocation behavior (allocs/event,
// steady-state allocs/event) for every scheduling mechanism × workload cell,
// and emits machine-readable reports so each PR leaves a performance
// trajectory (BENCH_*.json) the next one must beat. cmd/addict-bench -json
// is the command-line entry point; Compare pairs a current report with a
// recorded baseline and computes aggregate and per-cell speedups, refusing
// pairs that did not measure the same thing; Gate turns the pair into a
// per-cell, machine-independent regression verdict (see gate.go).
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"addict/internal/core"
	"addict/internal/sched"
	"addict/internal/sim"
	"addict/internal/sweep"
	"addict/internal/trace"
	"addict/internal/workload/synth"
)

// Config scopes what one harness run measures and how long; the seed,
// scale and trace windows are the session cache's (see Run).
type Config struct {
	// Workloads are the benchmark names to measure (default: TPC-B/C/E).
	// Encoded synthetic workloads ("synth:<preset>[+z<theta>][+w<frac>]
	// [+h<keys>]", see internal/workload/synth) are accepted too — the
	// artifact cache resolves both name spaces through the same sharded
	// recipe.
	Workloads []string
	// Mechanisms are the scheduling mechanisms to measure (default: all).
	Mechanisms []sched.Mechanism
	// Machine is the simulated hardware (default: the Table 1 machine).
	Machine sim.Config
	// MinRuns and MinDuration bound each cell's measurement loop: a cell
	// replays its trace set at least MinRuns times and for at least
	// MinDuration of wall clock.
	MinRuns     int
	MinDuration time.Duration
	// ExtraCells are additional workload × mechanism cells measured after
	// the full Workloads × Mechanisms grid, in order. They let the
	// trajectory carry targeted cells (the speculative mechanisms on the
	// contended synthetic regime) without multiplying the whole grid.
	// Unlike the other fields, an empty list stays empty — extras are
	// opt-in via DefaultConfig, not a default.
	ExtraCells []ExtraCell
}

// ExtraCell names one additional workload × mechanism cell.
type ExtraCell struct {
	Workload  string
	Mechanism sched.Mechanism
}

// DefaultConfig returns the standard harness setup, run on a session at
// the quick evaluation sizes (sweep.Spec's defaults): the three TPC
// benchmarks plus two synthetic regimes — a uniform read-only cell and a
// zipfian hot read-write cell — so the BENCH_*.json trajectory measures
// replay performance on non-TPC access patterns too (BENCH_5.json onward;
// earlier trajectory points carry TPC cells only), and two extra cells
// putting the speculative mechanisms (HTMSPEC, CHAIN) on the contended
// zipfian regime (BENCH_9.json onward).
// Reports generated from different sizes or cell sets are not comparable;
// trajectories should all use this configuration.
func DefaultConfig() Config {
	return Config{
		Workloads: []string{
			"TPC-B", "TPC-C", "TPC-E",
			"synth:uniform-ro", "synth:zipf-hot-rw",
		},
		Mechanisms: sched.Mechanisms,
		ExtraCells: []ExtraCell{
			{Workload: "synth:zipf-hot-rw", Mechanism: sched.HTMSPEC},
			{Workload: "synth:zipf-hot-rw", Mechanism: sched.CHAIN},
		},
		Machine:     sim.Shallow(),
		MinRuns:     2,
		MinDuration: 300 * time.Millisecond,
	}
}

// Cell is one mechanism × workload measurement.
type Cell struct {
	Workload  string `json:"workload"`
	Mechanism string `json:"mechanism"`
	// Events is the number of trace events one replay executes.
	Events uint64 `json:"events"`
	// Runs is how many times the replay was repeated for the measurement.
	Runs int `json:"runs"`
	// NsPerEvent and EventsPerSec describe replay throughput; both count
	// full replays (executor construction included) since that is the unit
	// every experiment pays for.
	NsPerEvent   float64 `json:"ns_per_event"`
	EventsPerSec float64 `json:"events_per_sec"`
	// AllocsPerEvent and BytesPerEvent are total heap activity per event,
	// setup included. SteadyAllocsPerEvent isolates the per-event loop: it
	// is the marginal allocations per additional event when the same
	// thread/batch structure replays a longer event stream (see
	// SteadyStateAllocsPerEvent), and is 0 for an allocation-free
	// steady-state replay core.
	AllocsPerEvent       float64 `json:"allocs_per_event"`
	BytesPerEvent        float64 `json:"bytes_per_event"`
	SteadyAllocsPerEvent float64 `json:"steady_allocs_per_event"`
}

// Summary aggregates the replay benchmark over all cells: total events
// divided by total wall-clock across every mechanism × workload replay.
type Summary struct {
	Events       uint64  `json:"events"`
	Seconds      float64 `json:"seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	NsPerEvent   float64 `json:"ns_per_event"`
}

// Report is one full harness run.
type Report struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`

	Seed          int64   `json:"seed"`
	Scale         float64 `json:"scale"`
	ProfileTraces int     `json:"profile_traces"`
	EvalTraces    int     `json:"eval_traces"`

	// MinRuns and MinDuration record the measurement bounds each cell was
	// timed under (schema v2 onward; zero in older reports), so a gate can
	// detect baseline/current pairs whose cells were measured to different
	// standards before judging their ratio.
	MinRuns     int           `json:"min_runs,omitempty"`
	MinDuration time.Duration `json:"min_duration_ns,omitempty"`

	// Replay is the headline aggregate ("the replay benchmark"): every
	// cell's events over every cell's seconds.
	Replay Summary `json:"replay"`
	Cells  []Cell  `json:"cells"`
}

// schemaID tags reports so future format changes stay detectable. v2 adds
// the measurement bounds (min_runs/min_duration_ns); v1 reports are still
// readable — their bounds parse as zero ("unrecorded").
const schemaID = "addict-bench/v2"

// knownSchemas are the report formats ReadFile accepts.
var knownSchemas = map[string]bool{
	"addict-bench/v1": true,
	"addict-bench/v2": true,
}

// Run executes the harness and returns the report. Progress lines go to
// progress when non-nil (one per cell; measurement noise is easier to
// diagnose when the slow cell is visible).
//
// The harness stops between trace-generation shards and between
// measurement cells once ctx is cancelled, and returns ctx's error instead
// of a partial report (a partial report would not be comparable to any
// BENCH_*.json trajectory point).
//
// arts is the session cache to measure over (required): the cells replay
// its trace windows and profiles, generated at its worker bound, and the
// report records its seed, scale and trace windows, so the metadata always
// describes the artifacts the cells were measured on. Measurement itself
// is strictly serial either way.
func Run(ctx context.Context, cfg Config, progress io.Writer, arts *sweep.Artifacts) (*Report, error) {
	cfg = withDefaults(cfg)
	for _, name := range cfg.Workloads {
		if _, _, err := synth.Workload(name); err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
	}
	for _, ec := range cfg.ExtraCells {
		if _, _, err := synth.Workload(ec.Workload); err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
	}
	rep := &Report{
		Schema:      schemaID,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		MinRuns:     cfg.MinRuns,
		MinDuration: cfg.MinDuration,
	}
	rep.Seed, rep.Scale, rep.ProfileTraces, rep.EvalTraces = arts.Params()
	// measure runs one cell and folds it into the report; the artifact
	// cache memoizes, so an extra cell on an already-measured workload
	// reuses its trace set and profile.
	measure := func(name string, mech sched.Mechanism) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		set, err := arts.EvalSet(ctx, name)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", name, err)
		}
		// Only ADDICT reads a profile; fetching one for any other cell
		// would generate a whole profiling window for nothing.
		var prof *core.Profile
		if mech == sched.ADDICT {
			if prof, err = arts.Profile(ctx, name, cfg.Machine); err != nil {
				return fmt.Errorf("bench: %s: %w", name, err)
			}
		}
		cell, err := measureCell(mech, set, prof, cfg)
		if err != nil {
			return fmt.Errorf("bench: %s on %s: %w", mech, name, err)
		}
		rep.Cells = append(rep.Cells, cell)
		rep.Replay.Events += cell.Events * uint64(cell.Runs)
		rep.Replay.Seconds += cell.NsPerEvent * float64(cell.Events) * float64(cell.Runs) / 1e9
		if progress != nil {
			fmt.Fprintf(progress, "bench %-8s %-8s %8.1f ns/event  %.2fM events/sec  (%d runs)\n",
				name, mech, cell.NsPerEvent, cell.EventsPerSec/1e6, cell.Runs)
		}
		return nil
	}
	for _, name := range cfg.Workloads {
		for _, mech := range cfg.Mechanisms {
			if err := measure(name, mech); err != nil {
				return nil, err
			}
		}
	}
	for _, ec := range cfg.ExtraCells {
		if err := measure(ec.Workload, ec.Mechanism); err != nil {
			return nil, err
		}
	}
	if rep.Replay.Seconds > 0 {
		rep.Replay.EventsPerSec = float64(rep.Replay.Events) / rep.Replay.Seconds
		rep.Replay.NsPerEvent = rep.Replay.Seconds * 1e9 / float64(rep.Replay.Events)
	}
	return rep, nil
}

func withDefaults(cfg Config) Config {
	def := DefaultConfig()
	if len(cfg.Workloads) == 0 {
		cfg.Workloads = def.Workloads
	}
	if len(cfg.Mechanisms) == 0 {
		cfg.Mechanisms = def.Mechanisms
	}
	if cfg.Machine.Cores == 0 {
		cfg.Machine = def.Machine
	}
	if cfg.MinRuns == 0 {
		cfg.MinRuns = def.MinRuns
	}
	if cfg.MinDuration == 0 {
		cfg.MinDuration = def.MinDuration
	}
	return cfg
}

// measureCell times repeated replays of one mechanism over one set.
func measureCell(mech sched.Mechanism, set *trace.Set, prof *core.Profile, cfg Config) (Cell, error) {
	rcfg := sched.Config{Machine: cfg.Machine, Profile: prof}
	events := setEvents(set)
	if events == 0 {
		return Cell{}, fmt.Errorf("empty trace set")
	}
	// Warm up once: first-run work (lazily built artifacts, map growth,
	// branch predictors warming the scan loops) must not skew the timing.
	if _, err := sched.Run(mech, set, rcfg); err != nil {
		return Cell{}, err
	}
	var m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m1)
	start := time.Now()
	runs := 0
	for {
		if _, err := sched.Run(mech, set, rcfg); err != nil {
			return Cell{}, err
		}
		runs++
		if runs >= cfg.MinRuns && time.Since(start) >= cfg.MinDuration {
			break
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m2)

	total := float64(events) * float64(runs)
	cell := Cell{
		Workload:       set.Workload,
		Mechanism:      string(mech),
		Events:         events,
		Runs:           runs,
		NsPerEvent:     float64(elapsed.Nanoseconds()) / total,
		EventsPerSec:   total / elapsed.Seconds(),
		AllocsPerEvent: float64(m2.Mallocs-m1.Mallocs) / total,
		BytesPerEvent:  float64(m2.TotalAlloc-m1.TotalAlloc) / total,
	}
	steady, err := SteadyStateAllocsPerEvent(mech, set, rcfg)
	if err != nil {
		return Cell{}, err
	}
	cell.SteadyAllocsPerEvent = steady
	return cell, nil
}

// setEvents counts the events one replay of the set executes (every event
// executes exactly once; yields retry scheduling decisions, not events).
func setEvents(s *trace.Set) uint64 {
	var n uint64
	for _, t := range s.Traces {
		n += uint64(len(t.Events))
	}
	return n
}

// SteadyStateAllocsPerEvent measures the marginal allocations per
// additional replayed event: it replays the set and a variant with every
// trace's interior doubled (same trace count, same type mix, same batch
// structure — only the event streams are longer) and divides the
// allocation delta by the event delta. Per-run setup (executor, batching,
// per-thread scheduler state) cancels out, so a replay core whose
// per-event loop never allocates measures exactly 0.
func SteadyStateAllocsPerEvent(mech sched.Mechanism, set *trace.Set, rcfg sched.Config) (float64, error) {
	doubled := DoubleInterior(set)
	dEvents := float64(setEvents(doubled) - setEvents(set))
	// Allocation noise (a stray background allocation landing inside one
	// measurement) is strictly additive, so the minimum delta over a few
	// repetitions is the true marginal count.
	const repeats = 3
	best := -1.0
	for r := 0; r < repeats; r++ {
		short, err := allocsPerRun(mech, set, rcfg)
		if err != nil {
			return 0, err
		}
		long, err := allocsPerRun(mech, doubled, rcfg)
		if err != nil {
			return 0, err
		}
		per := (long - short) / dEvents
		if per < 0 {
			// Marginal allocations cannot be negative; tiny negatives are
			// the same noise landing in the short run.
			per = 0
		}
		if best < 0 || per < best {
			best = per
		}
		if best == 0 {
			break
		}
	}
	return best, nil
}

// countMu serializes allocation counts. A count reads process-wide
// MemStats and pins GOMAXPROCS for its window, so two counts at once (two
// bench runs in one addict-serve process) would see each other's
// allocations, and their save/restore of GOMAXPROCS would not nest.
var countMu sync.Mutex

// allocsPerRun returns the allocation count of one replay. The count reads
// process-wide MemStats, so it runs on one P, and its window must not hold
// a GC cycle: the runtime allocates during a cycle, and one run's setup
// can outgrow the live heap, so a window of several runs would trigger a
// cycle nearly every time once the binary links the whole program. A
// collection before each window and one run per window keep the window
// cycle-free; a window that still holds a cycle is retried. The collector
// is never switched off: the count runs inside addict-serve beside other
// requests.
func allocsPerRun(mech sched.Mechanism, set *trace.Set, rcfg sched.Config) (float64, error) {
	countMu.Lock()
	defer countMu.Unlock()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Warm up: lazily grown caches (scheduler maps, slice capacities)
	// reach steady shape before counting.
	if _, err := sched.Run(mech, set, rcfg); err != nil {
		return 0, err
	}
	const attempts = 5
	var m1, m2 runtime.MemStats
	for a := 1; ; a++ {
		runtime.GC()
		runtime.ReadMemStats(&m1)
		if _, err := sched.Run(mech, set, rcfg); err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&m2)
		if m2.NumGC == m1.NumGC || a == attempts {
			return float64(m2.Mallocs - m1.Mallocs), nil
		}
	}
}

// DoubleInterior returns a set whose traces repeat their interior (between
// TxnBegin and TxnEnd) twice. The result is structurally valid (operation
// brackets stay balanced), has the same trace count and type mix — so
// batching, placement, and per-thread scheduler state are identical — and
// roughly twice the events. The zero-alloc guards replay it against the
// original to isolate per-event allocations.
func DoubleInterior(s *trace.Set) *trace.Set {
	out := &trace.Set{Workload: s.Workload, TypeNames: s.TypeNames}
	for _, t := range s.Traces {
		ev := t.Events
		if len(ev) < 2 {
			out.Traces = append(out.Traces, t)
			continue
		}
		interior := ev[1 : len(ev)-1]
		d := make([]trace.Event, 0, 2+2*len(interior))
		d = append(d, ev[0])
		d = append(d, interior...)
		d = append(d, interior...)
		d = append(d, ev[len(ev)-1])
		out.Traces = append(out.Traces, &trace.Trace{Type: t.Type, TypeName: t.TypeName, Events: d})
	}
	return out
}

// File is the on-disk BENCH_*.json layout: the current report plus the
// pre-change baseline it is measured against.
type File struct {
	Baseline *Report `json:"baseline,omitempty"`
	Current  *Report `json:"current"`
	// SpeedupEventsPerSec is Current.Replay.EventsPerSec over
	// Baseline.Replay.EventsPerSec (0 when no baseline is recorded). It is
	// the events-weighted aggregate: a win on a heavy cell can mask a loss
	// on a light one, which is why the per-cell Gate exists.
	SpeedupEventsPerSec float64 `json:"speedup_events_per_sec,omitempty"`
	// SpeedupCells are the per-(workload × mechanism) raw speedups, in the
	// current report's cell order. Raw speedups compare absolute events/sec
	// across the two reports, so they carry the recording machines' speed
	// difference; the Gate's normalized ratios cancel it.
	SpeedupCells []CellSpeedup `json:"speedup_cells,omitempty"`
	// Gate is the per-cell regression verdict, recorded when the file was
	// produced by a gated run (ApplyGate).
	Gate *Verdict `json:"gate,omitempty"`
}

// CellSpeedup is one cell's raw events/sec ratio between two reports.
type CellSpeedup struct {
	Workload  string  `json:"workload"`
	Mechanism string  `json:"mechanism"`
	Speedup   float64 `json:"speedup_events_per_sec"`
}

// Compare builds the on-disk file from a current report and an optional
// baseline, computing the aggregate and per-cell speedups. A baseline that
// did not measure the same thing as the current report — different
// seed/scale/trace windows, different measurement bounds, or a different
// cell set (the BENCH_3-vs-BENCH_5 trap: TPC-only versus TPC+synth
// aggregates) — is refused instead of silently compared.
func Compare(baseline, current *Report) (*File, error) {
	f := &File{Baseline: baseline, Current: current}
	if baseline == nil {
		return f, nil
	}
	if err := Comparable(baseline, current); err != nil {
		return nil, err
	}
	if baseline.Replay.EventsPerSec > 0 {
		f.SpeedupEventsPerSec = current.Replay.EventsPerSec / baseline.Replay.EventsPerSec
	}
	base := cellIndex(baseline)
	for _, c := range current.Cells {
		b := base[cellKey{c.Workload, c.Mechanism}]
		if b.EventsPerSec <= 0 {
			return nil, fmt.Errorf("bench: baseline cell %s/%s carries no events/sec", c.Workload, c.Mechanism)
		}
		f.SpeedupCells = append(f.SpeedupCells, CellSpeedup{
			Workload:  c.Workload,
			Mechanism: c.Mechanism,
			Speedup:   c.EventsPerSec / b.EventsPerSec,
		})
	}
	return f, nil
}

// WriteJSON writes a bench file as indented JSON.
func (f *File) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// ReadFile parses a bench file. A bare Report (no current/baseline
// wrapper) is accepted too, so a previous run's report can serve directly
// as a baseline. Both schema versions parse (v1 reports simply carry no
// measurement bounds).
func ReadFile(r io.Reader) (*File, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err == nil {
		if f.Current != nil {
			if err := checkSchema(f.Current.Schema); err != nil {
				return nil, err
			}
			if f.Baseline != nil {
				if err := checkSchema(f.Baseline.Schema); err != nil {
					return nil, fmt.Errorf("embedded baseline: %w", err)
				}
			}
			return &f, nil
		}
		if f.Baseline != nil {
			// A wrapper with only a baseline used to fall through to the
			// bare-Report parse and report `unknown schema ""` — say what
			// is actually wrong.
			return nil, fmt.Errorf("bench: file carries a baseline but no current report")
		}
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("bench: not a bench file or report: %w", err)
	}
	if err := checkSchema(rep.Schema); err != nil {
		return nil, err
	}
	return &File{Current: &rep}, nil
}

// checkSchema validates a report's schema tag against the known formats.
func checkSchema(schema string) error {
	if !knownSchemas[schema] {
		return fmt.Errorf("bench: unknown schema %q", schema)
	}
	return nil
}
