package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"addict"
	"addict/internal/codemap"
	"addict/internal/core"
	"addict/internal/pool"
	"addict/internal/sim"
	"addict/internal/store"
	"addict/internal/sweep"
	"addict/internal/trace"
	"addict/internal/workload"
	"addict/internal/workload/synth"
)

// decomp re-runs a workload's pipeline from the benchmark's own code, one
// layer call at a time, with a span around each call: trace generation
// (populate, warm-up, traced emission per shard), Algorithm 1, the artifact
// store's encode/put/get/decode, replay, and the sweep emitter. It follows
// the Engine's recipe exactly — the same shard seeds, windows, profiling
// configuration and replay path — so its rows must match the untraced
// run's byte for byte; the caller checks that they do.
type decomp struct {
	tr     *tracer
	req    int
	seed   int64
	scale  float64
	traces int
	st     *store.Store // nil: the pipeline attaches no store
	layout *codemap.Layout

	mu                 sync.Mutex
	sets               map[string]*trace.Set // "prof|wl", "eval|wl"
	profs              map[string]*core.Profile
	encBytes, decBytes float64
	traced, events     float64 // traces and events generated
	points             int
	replayed           float64 // events replayed
	nsPerMech          map[string]float64
	eventsPerMech      map[string]float64
	allocs             float64
}

func newDecomp(r *run, req int, st *store.Store) *decomp {
	return &decomp{
		tr: r.tr, req: req, seed: r.cfg.seed, scale: r.cfg.scale, traces: r.cfg.traces,
		st: st, layout: codemap.NewLayout(),
		sets: map[string]*trace.Set{}, profs: map[string]*core.Profile{},
		nsPerMech: map[string]float64{}, eventsPerMech: map[string]float64{},
	}
}

// shardBuilder returns the per-shard benchmark constructor of a workload
// name: the TPC builders, or the synthetic compiler for "synth:" names
// (whose presets used here have no phase schedule, so a shard built from
// its seed alone is the sharded recipe's shard).
func shardBuilder(name string) (func(seed int64, scale float64) (*workload.Benchmark, error), error) {
	if build, err := workload.Builder(name); err == nil {
		return func(seed int64, scale float64) (*workload.Benchmark, error) { return build(seed, scale), nil }, nil
	}
	spec, err := synth.ParseName(name)
	if err != nil {
		return nil, err
	}
	if len(spec.Phases) > 0 {
		return nil, fmt.Errorf("%s: phased synthetic workloads cannot be rebuilt shard by shard", name)
	}
	return func(seed int64, scale float64) (*workload.Benchmark, error) { return synth.New(spec, seed, scale) }, nil
}

type windowJob struct {
	kind  string // "prof" or "eval"
	name  string
	shard int
	count int
}

// generate builds the profiling and evaluation windows of every named
// workload, shard by shard on the worker pool, storing each through the
// artifact store when one is attached (a miss-check first, as the Engine's
// read-through cache does).
func (d *decomp) generate(ctx context.Context, parent int, names []string) error {
	var jobs []windowJob
	evalBase := workload.NumShards(d.traces, workload.DefaultShardSize)
	for _, name := range names {
		for _, kind := range []string{"prof", "eval"} {
			base := 0
			if kind == "eval" {
				base = evalBase
			}
			left := d.traces
			for s := 0; s < workload.NumShards(d.traces, workload.DefaultShardSize); s++ {
				c := min(left, workload.DefaultShardSize)
				jobs = append(jobs, windowJob{kind, name, base + s, c})
				left -= c
			}
		}
	}
	parts := make([]*trace.Set, len(jobs))
	errs := make([]error, len(jobs))
	if err := pool.RunCtx(ctx, workers, len(jobs), func(i int) {
		parts[i], errs[i] = d.shard(parent, jobs[i])
	}); err != nil {
		return err
	}
	byWindow := map[string][]*trace.Set{}
	var order []string
	for i, j := range jobs {
		if errs[i] != nil {
			return errs[i]
		}
		key := j.kind + "|" + j.name
		if _, ok := byWindow[key]; !ok {
			order = append(order, key)
		}
		byWindow[key] = append(byWindow[key], parts[i])
	}
	return d.each(ctx, order, func(key string) error {
		var set *trace.Set
		d.tr.do("workload.merge", parent, d.req, func(int) { set = trace.MergeSets(byWindow[key]...) })
		if err := d.put(parent, "set|"+key, func(w *bytes.Buffer) error { return trace.WriteSet(w, set) }); err != nil {
			return err
		}
		d.mu.Lock()
		d.sets[key] = set
		d.mu.Unlock()
		return nil
	})
}

// shard runs one generation shard: populate, warm up, emit.
func (d *decomp) shard(parent int, j windowJob) (*trace.Set, error) {
	build, err := shardBuilder(j.name)
	if err != nil {
		return nil, err
	}
	var set *trace.Set
	var berr error
	d.tr.do("workload.shard", parent, d.req, func(id int) {
		var b *workload.Benchmark
		d.tr.do("workload.populate", id, d.req, func(int) {
			b, berr = build(workload.ShardSeed(d.seed, j.shard), d.scale)
		})
		if berr != nil {
			return
		}
		d.tr.do("workload.warmup", id, d.req, func(int) {
			for i := 0; i < workload.ShardWarmup; i++ {
				b.NextTxn()
			}
		})
		d.tr.do("workload.emit", id, d.req, func(int) { set = workload.GenerateSet(b, j.count) })
	})
	if berr != nil {
		return nil, berr
	}
	d.mu.Lock()
	d.traced += float64(len(set.Traces))
	d.events += float64(setEvents(set))
	d.mu.Unlock()
	return set, nil
}

// put checks the store for the entry (a cold pipeline misses), encodes the
// artifact, and writes it. Without a store it does nothing.
func (d *decomp) put(parent int, spec string, encode func(*bytes.Buffer) error) error {
	if d.st == nil {
		return nil
	}
	spec = d.entrySpec(spec)
	d.tr.do("store.get", parent, d.req, func(int) { d.st.Get(spec) })
	var buf bytes.Buffer
	var err error
	d.tr.do("store.encode", parent, d.req, func(int) { err = encode(&buf) })
	if err != nil {
		return err
	}
	d.tr.do("store.put", parent, d.req, func(int) { d.st.Put(spec, buf.Bytes()) })
	d.mu.Lock()
	d.encBytes += float64(buf.Len())
	d.mu.Unlock()
	return nil
}

// entrySpec names an artifact in the benchmark's own store.
func (d *decomp) entrySpec(key string) string {
	return fmt.Sprintf("addictbench|%s|seed=%d|scale=%g|n=%d", key, d.seed, d.scale, d.traces)
}

// readBack reads every stored window and profile back through the store's
// read path (read + digest verify, then decode) — what a warm process or a
// distributed worker does on its first touch — and checks the decoded
// windows equal the generated ones.
func (d *decomp) readBack(ctx context.Context, parent int) error {
	keys := make([]string, 0, len(d.sets)+len(d.profs))
	for k := range d.sets {
		keys = append(keys, "set|"+k)
	}
	for k := range d.profs {
		keys = append(keys, "profile|"+k)
	}
	return d.each(ctx, keys, func(key string) error {
		var data []byte
		var ok bool
		d.tr.do("store.get", parent, d.req, func(int) { data, ok = d.st.Get(d.entrySpec(key)) })
		if !ok {
			return fmt.Errorf("store: %s missing after put", key)
		}
		setKey, isSet := strings.CutPrefix(key, "set|")
		var set *trace.Set
		var err error
		d.tr.do("store.decode", parent, d.req, func(int) {
			if isSet {
				set, err = trace.ReadSet(bytes.NewReader(data))
			} else {
				_, err = core.ReadProfile(bytes.NewReader(data))
			}
		})
		if err != nil {
			return fmt.Errorf("store: decode %s: %w", key, err)
		}
		if isSet && set.Digest() != d.sets[setKey].Digest() {
			return fmt.Errorf("store: decoded %s differs from the generated window", setKey)
		}
		d.mu.Lock()
		d.decBytes += float64(len(data))
		d.mu.Unlock()
		return nil
	})
}

// profile runs Algorithm 1 over each named workload's profiling window on
// the Table 1 L1-I with the storage manager's no-migrate zones, as the
// Engine does.
func (d *decomp) profile(ctx context.Context, parent int, names []string) error {
	l1i := sim.Shallow().L1I
	return d.each(ctx, names, func(name string) error {
		var p *core.Profile
		d.tr.do("core.profile", parent, d.req, func(int) {
			p = core.FindMigrationPoints(d.sets["prof|"+name],
				core.ProfileConfig{L1I: l1i, NoMigrate: d.layout.NoMigrate})
		})
		if err := d.put(parent, "profile|"+name, func(w *bytes.Buffer) error { return core.WriteProfile(w, p) }); err != nil {
			return err
		}
		d.mu.Lock()
		d.profs[name] = p
		d.points += migrationPoints(p)
		d.mu.Unlock()
		return nil
	})
}

// replay runs every unit of the grid (ADDICT with its profile) on the
// worker pool and emits the rows through the sweep JSONL emitter.
func (d *decomp) replay(ctx context.Context, parent int, spec addict.SweepSpec) ([]byte, error) {
	units, err := addict.ExpandSweep(spec)
	if err != nil {
		return nil, err
	}
	metrics := make([]sweep.Metrics, len(units))
	errs := make([]error, len(units))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := pool.RunCtx(ctx, workers, len(units), func(i int) {
		u := units[i]
		set := d.sets["eval|"+u.Workload]
		var prof *core.Profile
		if u.Mechanism == addict.ADDICT {
			prof = d.profs[u.Workload]
		}
		id := d.tr.start("sched.run", parent, d.req)
		t0 := time.Now()
		res, err := sweep.Replay(u, set, prof)
		ns := float64(time.Since(t0).Nanoseconds())
		d.tr.end(id)
		if err != nil {
			errs[i] = err
			return
		}
		metrics[i] = sweep.Measure(res)
		ev := float64(setEvents(set))
		d.mu.Lock()
		d.replayed += ev
		d.eventsPerMech[string(u.Mechanism)] += ev
		d.nsPerMech[string(u.Mechanism)] += ns
		d.mu.Unlock()
	}); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	d.allocs += float64(ms1.Mallocs - ms0.Mallocs)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	em, err := sweep.NewEmitter("jsonl", &buf)
	if err != nil {
		return nil, err
	}
	d.tr.do("sweep.emit", parent, d.req, func(int) {
		if err = em.Begin(units); err != nil {
			return
		}
		for i, u := range units {
			if err = em.Emit(u, metrics[i]); err != nil {
				return
			}
		}
		err = em.End()
	})
	return buf.Bytes(), err
}

// each runs fn over keys on the worker pool and returns the first error.
func (d *decomp) each(ctx context.Context, keys []string, fn func(string) error) error {
	errs := make([]error, len(keys))
	if err := pool.RunCtx(ctx, workers, len(keys), func(i int) { errs[i] = fn(keys[i]) }); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// report sets the per-layer metrics this decomposition measured.
func (d *decomp) report(r *run) {
	const mb = 1 << 20
	tr := d.tr
	r.set("workload.populate_s", tr.total("workload.populate"))
	r.set("workload.warmup_s", tr.total("workload.warmup"))
	emit := tr.total("workload.emit")
	r.set("workload.emit_s", emit)
	r.set("workload.traces", d.traced)
	r.set("workload.events", d.events)
	r.set("workload.emit_events_per_s", div(d.events, emit))
	r.set("core.profile_s", tr.total("core.profile"))
	r.set("core.migration_points", float64(d.points))
	r.set("sched.replay_s", tr.total("sched.run"))
	for _, m := range mechanisms {
		r.set("sched.ns_per_event."+m, div(d.nsPerMech[m], d.eventsPerMech[m]))
	}
	r.set("sched.allocs_per_event", div(d.allocs, d.replayed))
	r.set("sim.events", d.replayed)
	r.set("store.encode_mb_per_s", div(d.encBytes/mb, tr.total("store.encode")))
	r.set("store.put_s", tr.total("store.put"))
	r.set("store.get_s", tr.total("store.get")+tr.total("store.decode"))
	r.set("store.decode_mb_per_s", div(d.decBytes/mb, tr.total("store.decode")))
	r.set("sweep.emit_s", tr.total("sweep.emit"))
}

// setEvents counts the events one replay of the set executes.
func setEvents(s *trace.Set) uint64 {
	var n uint64
	for _, t := range s.Traces {
		n += uint64(len(t.Events))
	}
	return n
}

// migrationPoints counts the migration points a profile places — the
// figure addict-serve's /v1/profile reports.
func migrationPoints(p *core.Profile) int {
	n := 0
	for _, t := range p.Txns {
		for _, op := range t.Ops {
			n += len(op.Seq)
		}
	}
	return n
}
