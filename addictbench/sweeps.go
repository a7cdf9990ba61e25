package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"addict"
	"addict/internal/store"
)

// coldSpec is cold-sweep's grid: every TPC benchmark plus the contended
// synthetic preset, Baseline against ADDICT, at the session defaults on the
// Table 1 machine.
var coldSpec = addict.SweepSpec{
	Workloads:  []string{"TPC-B", "TPC-C", "TPC-E", "synth:zipf-hot-rw"},
	Mechanisms: []string{"Baseline", "ADDICT"},
}

// gridSpec is replay-grid's grid: the large-footprint TPC benchmark and the
// contended synthetic preset, under all six mechanisms, at two batch sizes.
var gridSpec = addict.SweepSpec{
	Workloads:  []string{"TPC-C", "synth:zipf-hot-rw"},
	Mechanisms: mechanisms,
	Threads:    []int{8, 16},
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

// newEngine builds a session at the run's seed and sizes with the fixed
// worker bound.
func (r *run) newEngine(opts ...addict.EngineOption) *addict.Engine {
	base := []addict.EngineOption{
		addict.WithWorkers(workers),
		addict.WithSeed(r.cfg.seed),
		addict.WithScale(r.cfg.scale),
		addict.WithTraceWindows(r.cfg.traces, r.cfg.traces, 0),
	}
	return addict.NewEngine(append(base, opts...)...)
}

// quiesce collects garbage and restarts the peak-RSS mark, so a phase's
// peak is its own.
func quiesce() {
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()
}

// row is the part of a sweep JSONL row the checks read.
type row struct {
	ID        string `json:"id"`
	Workload  string `json:"workload"`
	Mechanism string `json:"mechanism"`
	Threads   int    `json:"threads"`
	addict.SweepMetrics
}

func parseRows(data []byte) ([]row, error) {
	var rows []row
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var rw row
		if err := json.Unmarshal(line, &rw); err != nil {
			return nil, fmt.Errorf("bad sweep row: %w", err)
		}
		rows = append(rows, rw)
	}
	return rows, nil
}

func digestOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// digestRef holds the reference row digest every later output must match.
type digestRef struct {
	want    string
	corrupt bool
}

// check compares data's digest with the reference; the first call sets
// the reference (damaged when the smoke test asks for it).
func (d *digestRef) check(data []byte) error {
	got := digestOf(data)
	if d.want == "" {
		d.want = got
		if d.corrupt {
			d.want = strings.Repeat("0", len(got))
		}
	}
	if got != d.want {
		return fmt.Errorf("row digest %s differs from reference %s", got[:16], d.want[:16])
	}
	return nil
}

// pairKey identifies the grid point an ADDICT row and its Baseline row share.
func pairKey(rw row) string { return fmt.Sprintf("%s/t%d", rw.Workload, rw.Threads) }

// addictPairs returns, for every TPC grid point holding both mechanisms,
// the ADDICT and Baseline rows.
func addictPairs(rows []row) map[string][2]row {
	pairs := map[string][2]row{}
	for _, rw := range rows {
		if !strings.HasPrefix(rw.Workload, "TPC-") {
			continue
		}
		p := pairs[pairKey(rw)]
		switch rw.Mechanism {
		case "ADDICT":
			p[0] = rw
		case "Baseline":
			p[1] = rw
		default:
			continue
		}
		pairs[pairKey(rw)] = p
	}
	return pairs
}

// checkADDICT is the directional check the paper's result implies: on every
// TPC grid point, ADDICT has fewer L1-I misses per kilo-instruction and a
// shorter makespan than Baseline.
func checkADDICT(rows []row) error {
	pairs := addictPairs(rows)
	if len(pairs) == 0 {
		return fmt.Errorf("no TPC grid point holds both ADDICT and Baseline")
	}
	for k, p := range pairs {
		a, b := p[0], p[1]
		if a.ID == "" || b.ID == "" {
			return fmt.Errorf("%s: missing ADDICT or Baseline row", k)
		}
		if a.L1IMPKI >= b.L1IMPKI || a.Makespan >= b.Makespan {
			return fmt.Errorf("%s: ADDICT does not beat Baseline (L1-I MPKI %.3f vs %.3f, makespan %d vs %d)",
				k, a.L1IMPKI, b.L1IMPKI, a.Makespan, b.Makespan)
		}
	}
	return nil
}

// addictRatios averages ADDICT ÷ Baseline L1-I MPKI and makespan over the
// TPC grid points.
func addictRatios(rows []row) (l1i, makespan float64) {
	pairs := addictPairs(rows)
	for _, p := range pairs {
		l1i += div(p[0].L1IMPKI, p[1].L1IMPKI)
		makespan += div(float64(p[0].Makespan), float64(p[1].Makespan))
	}
	n := float64(len(pairs))
	return div(l1i, n), div(makespan, n)
}

// checkedRows parses rows, checks their digest against ref and the ADDICT
// direction, and returns the parsed rows.
func checkedRows(data []byte, ref *digestRef) ([]row, error) {
	if err := ref.check(data); err != nil {
		return nil, err
	}
	rows, err := parseRows(data)
	if err != nil {
		return nil, err
	}
	return rows, checkADDICT(rows)
}

// setRatios reports the simulated ADDICT ÷ Baseline ratios. The L1-I MPKI
// ratio is printed but not an end-to-end metric: on replay-grid's TPC-C
// window it moves by a quarter from seed to seed, more than any bound can
// absorb.
func (r *run) setRatios(rows []row) {
	l1i, mk := addictRatios(rows)
	fmt.Fprintf(r.out, "  addict_l1i_mpki_ratio %.4f\n", l1i)
	r.set("addict_makespan_ratio", mk)
}

// setRowStats reports the simulated per-mechanism statistics (means over
// the mechanism's rows): what a model change moves and a simulator
// speed-up must leave identical.
func (r *run) setRowStats(rows []row) {
	for _, m := range mechanisms {
		var n, l1i, l1d, llc, sw, ov float64
		for _, rw := range rows {
			if rw.Mechanism != m {
				continue
			}
			n++
			l1i += rw.L1IMPKI
			l1d += rw.L1DMPKI
			llc += rw.LLCMPKI
			sw += rw.SwitchesPerKI
			ov += rw.OverheadShare
		}
		r.set("cache.l1i_mpki."+m, div(l1i, n))
		r.set("cache.l1d_mpki."+m, div(l1d, n))
		r.set("cache.llc_mpki."+m, div(llc, n))
		r.set("sim.switches_per_ki."+m, div(sw, n))
		r.set("sim.overhead_share."+m, div(ov, n))
	}
	var aborts float64
	for _, rw := range rows {
		aborts += float64(rw.CapacityAborts + rw.ConflictAborts)
	}
	r.set("sched.aborts.HTMSPEC", aborts)
}

// setCacheStats reports a session's artifact-cache and store counters.
func (r *run) setCacheStats(cs addict.CacheStats) {
	r.set("pool.lru_hits", float64(cs.Hits))
	r.set("pool.lru_misses", float64(cs.Misses))
	r.set("pool.lru_evictions", float64(cs.Evictions))
	r.set("pool.lru_bytes", float64(cs.Bytes))
	if st := cs.Store; st != nil {
		r.set("store.hits", float64(st.Hits))
		r.set("store.misses", float64(st.Misses))
		r.set("store.writes", float64(st.Writes))
		r.set("store.written_mb", float64(st.Bytes)/(1<<20))
	}
}

// sweepEvents counts the trace events one sweep of spec replays on the
// session (every unit replays its workload's whole evaluation window).
func sweepEvents(ctx context.Context, eng *addict.Engine, spec addict.SweepSpec) (float64, error) {
	units, err := addict.ExpandSweep(spec)
	if err != nil {
		return 0, err
	}
	var n float64
	for _, u := range units {
		set, err := eng.Traces(ctx, u.Workload)
		if err != nil {
			return 0, err
		}
		n += float64(setEvents(set))
	}
	return n, nil
}

// coldRep is one cold-sweep repetition: a fresh session on a fresh empty
// store. Its set-up builds the session and has it generate and store its
// first artifact, the first workload's evaluation window; the sweep pays
// for everything else.
type coldRep struct {
	setup, sweep, rss float64
	rows              []byte
	cache             addict.CacheStats
	eng               *addict.Engine
}

func (r *run) coldRep(ctx context.Context, i int) (coldRep, error) {
	var rep coldRep
	dir := filepath.Join(r.cfg.workDir, fmt.Sprintf("cold-%d", i))
	defer os.RemoveAll(dir)
	quiesce()
	t0 := time.Now()
	eng := r.newEngine(addict.WithStore(dir, 0))
	if err := eng.StoreErr(); err != nil {
		return rep, err
	}
	if _, err := eng.Traces(ctx, coldSpec.Workloads[0]); err != nil {
		return rep, err
	}
	rep.setup = since(t0)
	var buf bytes.Buffer
	t1 := time.Now()
	err := eng.Sweep(ctx, &buf, coldSpec, "jsonl")
	rep.sweep = since(t1)
	rep.rss = peakRSSMB()
	rep.rows = buf.Bytes()
	rep.cache = eng.CacheStats()
	rep.eng = eng
	return rep, err
}

// coldSweep measures the first sweep a user or CI job pays for: generation,
// Algorithm 1 and store writes dominate, replay is about a third.
func coldSweep(ctx context.Context, r *run) error {
	if r.tr != nil {
		return coldSweepTraced(ctx, r)
	}
	ref := &digestRef{corrupt: r.cfg.corruptDigest}
	var setups, secs, rss []float64
	var rows []row
	var events float64
	start := time.Now()
	for i := 0; i < 2 || since(start) < r.cfg.seconds; i++ {
		rep, err := r.coldRep(ctx, i)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err == nil {
			var rs []row
			if rs, err = checkedRows(rep.rows, ref); rs != nil {
				rows = rs
			}
		}
		r.op(err)
		if err != nil {
			continue
		}
		setups = append(setups, rep.setup)
		secs = append(secs, rep.sweep)
		rss = append(rss, rep.rss)
		if events == 0 {
			if events, err = sweepEvents(ctx, rep.eng, coldSpec); err != nil {
				return err
			}
			r.set("store.written_mb", float64(rep.cache.Store.Bytes)/(1<<20))
		}
	}
	fmt.Fprintf(r.out, "cold-sweep: %d sweeps of %d units, row digest %s, store %.2f MB\n  setup seconds: %s\n  sweep seconds: %s\n",
		len(secs), len(rows), ref.want, r.vals["store.written_mb"], fmtList(setups), fmtList(secs))
	sweepS := median(secs)
	r.set("setup_s", median(setups))
	r.set("op_latency_ms", sweepS*1e3)
	r.set("sim_events_per_s", div(events, sweepS))
	r.set("peak_rss_mb", median(rss))
	r.setRatios(rows)
	return nil
}

// coldSweepTraced runs one untraced cold sweep as the reference, then the
// same work through the decomposition on a fresh store.
func coldSweepTraced(ctx context.Context, r *run) error {
	ref := &digestRef{corrupt: r.cfg.corruptDigest}
	rep, err := r.coldRep(ctx, 0)
	if err != nil {
		return err
	}
	_, err = checkedRows(rep.rows, ref)
	r.op(err)
	rep.eng = nil // release the reference session before the decomposition

	st, err := store.Open(filepath.Join(r.cfg.workDir, "traced-store"), 0)
	if err != nil {
		return err
	}
	quiesce()
	d := newDecomp(r, 1, st)
	t0 := time.Now()
	root := r.tr.start("bench.sweep", 0, d.req)
	data, err := d.tracedSweep(ctx, root, coldSpec)
	r.tr.end(root)
	wall := since(t0)
	if err != nil {
		return err
	}
	rows, err := checkedRows(data, ref)
	r.op(err)

	d.report(r)
	r.setRowStats(rows)
	r.setCacheStats(rep.cache)
	r.set("sweep.units", float64(len(rows)))
	r.set("tracing.overhead_ratio", div(wall, rep.setup+rep.sweep))
	secs, share := r.tr.layerShares(map[int]bool{root: true})
	printShares(r.out, "cold sweep", secs, share)
	return nil
}

// tracedSweep is the decomposition of one sweep: generate every window,
// profile, replay, emit.
func (d *decomp) tracedSweep(ctx context.Context, root int, spec addict.SweepSpec) ([]byte, error) {
	if err := d.generate(ctx, root, spec.Workloads); err != nil {
		return nil, err
	}
	if err := d.profile(ctx, root, spec.Workloads); err != nil {
		return nil, err
	}
	return d.replay(ctx, root, spec)
}

// fillGrid builds a session and fills its cache with everything the grid
// reads: both windows and the ADDICT profile of each workload — the state
// one pass over the grid leaves behind (sweeps cache artifacts, not
// replays).
func (r *run) fillGrid(ctx context.Context) (*addict.Engine, float64, error) {
	t0 := time.Now()
	eng := r.newEngine()
	for _, wl := range gridSpec.Workloads {
		if _, err := eng.Profile(ctx, wl); err != nil {
			return nil, 0, err
		}
		if _, err := eng.Traces(ctx, wl); err != nil {
			return nil, 0, err
		}
	}
	return eng, since(t0), nil
}

// replayGrid measures re-running a grid on a warm session, where replay is
// all that is left to pay for.
func replayGrid(ctx context.Context, r *run) error {
	if r.tr != nil {
		return replayGridTraced(ctx, r)
	}
	var setups []float64
	var eng *addict.Engine
	for i := 0; i < 2; i++ {
		e, s, err := r.fillGrid(ctx)
		if err != nil {
			return err
		}
		eng = e
		setups = append(setups, s)
	}
	events, err := sweepEvents(ctx, eng, gridSpec)
	if err != nil {
		return err
	}
	ref := &digestRef{corrupt: r.cfg.corruptDigest}
	var secs, rss []float64
	var rows []row
	start := time.Now()
	for i := 0; i < 2 || since(start) < r.cfg.seconds; i++ {
		quiesce()
		var buf bytes.Buffer
		misses := eng.CacheStats().Misses
		t0 := time.Now()
		err := eng.Sweep(ctx, &buf, gridSpec, "jsonl")
		d := since(t0)
		peak := peakRSSMB()
		if ctx.Err() != nil {
			return ctx.Err()
		}
		// A warm sweep must regenerate and re-profile nothing: the fill
		// left every artifact it reads in the session cache.
		if n := eng.CacheStats().Misses - misses; err == nil && n != 0 {
			err = fmt.Errorf("warm sweep missed the session cache %d times", n)
		}
		if err == nil {
			var rs []row
			if rs, err = checkedRows(buf.Bytes(), ref); rs != nil {
				rows = rs
			}
		}
		r.op(err)
		if err == nil {
			secs = append(secs, d)
			rss = append(rss, peak)
		}
	}
	fmt.Fprintf(r.out, "replay-grid: %d sweeps of %d units, row digest %s\n  sweep seconds: %s\n",
		len(secs), len(rows), ref.want, fmtList(secs))
	sweepS := median(secs)
	r.set("setup_s", median(setups))
	r.set("op_latency_ms", sweepS*1e3)
	r.set("sim_events_per_s", div(events, sweepS))
	r.set("peak_rss_mb", median(rss))
	r.setRatios(rows)
	return nil
}

// replayGridTraced fills a session and sweeps it once untraced as the
// reference, then decomposes the fill (generation, profiling) and the
// sweep (replay, emit) with spans.
func replayGridTraced(ctx context.Context, r *run) error {
	eng, _, err := r.fillGrid(ctx)
	if err != nil {
		return err
	}
	ref := &digestRef{corrupt: r.cfg.corruptDigest}
	var buf bytes.Buffer
	quiesce()
	t0 := time.Now()
	err = eng.Sweep(ctx, &buf, gridSpec, "jsonl")
	untraced := since(t0)
	if err != nil {
		return err
	}
	_, err = checkedRows(buf.Bytes(), ref)
	r.op(err)
	r.setCacheStats(eng.CacheStats())

	d := newDecomp(r, 1, nil)
	setup := r.tr.start("bench.setup", 0, d.req)
	err = d.generate(ctx, setup, gridSpec.Workloads)
	if err == nil {
		err = d.profile(ctx, setup, gridSpec.Workloads)
	}
	r.tr.end(setup)
	if err != nil {
		return err
	}
	quiesce()
	d.req = 2
	t1 := time.Now()
	root := r.tr.start("bench.sweep", 0, d.req)
	data, err := d.replay(ctx, root, gridSpec)
	r.tr.end(root)
	wall := since(t1)
	if err != nil {
		return err
	}
	rows, err := checkedRows(data, ref)
	r.op(err)

	d.report(r)
	r.setRowStats(rows)
	r.set("sweep.units", float64(len(rows)))
	r.set("tracing.overhead_ratio", div(wall, untraced))
	secs, share := r.tr.layerShares(map[int]bool{setup: true})
	printShares(r.out, "session fill (setup)", secs, share)
	secs, share = r.tr.layerShares(map[int]bool{root: true})
	printShares(r.out, "warm sweep", secs, share)
	return nil
}
