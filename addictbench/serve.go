package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"addict"
	"addict/client"
	"addict/internal/pool"
	"addict/internal/store"
	"addict/internal/sweep"
)

// serve-warm's traffic: an open loop against a fresh addict-serve process
// on a populated store, mostly cheap reads (every workload × mechanism
// schedule, every profile) with a steady minority of small sweeps that
// the response cache cannot answer. At the default rates (config.readRate,
// config.computeRate) the server keeps its two CPUs about a fifth busy, at
// half the rates where the read tail breaks; README.md gives the ramp.
var serveWorkloads = []string{"TPC-B", "TPC-C", "TPC-E", "synth:zipf-hot-rw"}

const (
	serveReps = 5 // server processes per run, each a fifth of the time
	// computeWorkload is the one workload sweep requests replay: the
	// smallest TPC window, so a request stays small.
	computeWorkload = "TPC-B"
)

// request is one scheduled call of the open loop.
type request struct {
	due  time.Duration // from the start of the repetition
	kind string        // "schedule", "profile", "sweep", "sweep-dist"
	wl   string
	mech string
	mem  uint64 // sweep requests: the memory latency knob, distinct per request
}

// outcome is one request's result.
type outcome struct {
	req     request
	latency float64 // ms from the due time to the last byte
	late    float64 // ms the generator dispatched after the due time
	err     error
	sched   *client.ScheduleResult
	prof    *client.ProfileSummary
	rows    []client.SweepRow
}

// plan builds every repetition's arrival schedule from the seed: Poisson
// read arrivals at readRate per second with keys drawn uniformly, and
// computeRate sweep requests per second alternating plain and distributed,
// each with its own knob value.
func plan(seed int64, reps int, repSeconds, readRate, computeRate float64) [][]request {
	rng := rand.New(rand.NewSource(seed))
	knobs := rng.Perm(4000)
	next := 0
	out := make([][]request, reps)
	for rep := range out {
		var reqs []request
		for t := rng.ExpFloat64() / readRate; t < repSeconds; t += rng.ExpFloat64() / readRate {
			k := rng.Intn(len(serveWorkloads) * (len(mechanisms) + 1))
			wl := serveWorkloads[k%len(serveWorkloads)]
			q := request{due: time.Duration(t * float64(time.Second)), kind: "profile", wl: wl}
			if m := k / len(serveWorkloads); m < len(mechanisms) {
				q.kind, q.mech = "schedule", mechanisms[m]
			}
			reqs = append(reqs, q)
		}
		// Sweeps arrive evenly spaced from a seeded phase: a Poisson stream
		// would let the seed decide how often two sweeps overlap, and with
		// that the sweep latency.
		for t := rng.Float64() / computeRate; t < repSeconds; t += 1 / computeRate {
			q := request{due: time.Duration(t * float64(time.Second)), kind: "sweep", wl: computeWorkload,
				mech: "ADDICT", mem: 60 + uint64(knobs[next%len(knobs)])}
			if next%2 == 1 {
				q.kind = "sweep-dist"
			}
			next++
			reqs = append(reqs, q)
		}
		out[rep] = reqs
	}
	return out
}

// computeSpec is a sweep request's one-unit grid.
func computeSpec(q request) addict.SweepSpec {
	return addict.SweepSpec{
		Workloads:  []string{q.wl},
		Mechanisms: []string{q.mech},
		MemCycles:  []uint64{q.mem},
	}
}

// expected holds the in-process Engine's answers for every read key.
type expected struct {
	sched map[string]addict.SweepMetrics // "wl|mech"
	prof  map[string]client.ProfileSummary
}

// populate fills a fresh store the way a first server session would —
// every workload's schedule under every mechanism and every profile — and
// returns the session's answers.
func (r *run) populate(ctx context.Context, dir string) (expected, addict.CacheStats, error) {
	exp := expected{sched: map[string]addict.SweepMetrics{}, prof: map[string]client.ProfileSummary{}}
	eng := r.newEngine(addict.WithStore(dir, 0))
	if err := eng.StoreErr(); err != nil {
		return exp, addict.CacheStats{}, err
	}
	type key struct{ wl, mech string }
	var keys []key
	for _, wl := range serveWorkloads {
		for _, m := range append([]string{""}, mechanisms...) {
			keys = append(keys, key{wl, m})
		}
	}
	var mu sync.Mutex
	errs := make([]error, len(keys))
	if err := pool.RunCtx(ctx, workers, len(keys), func(i int) {
		k := keys[i]
		if k.mech == "" {
			p, err := eng.Profile(ctx, k.wl)
			if err != nil {
				errs[i] = err
				return
			}
			ops := 0
			for _, t := range p.Txns {
				ops += len(t.Ops)
			}
			mu.Lock()
			exp.prof[k.wl] = client.ProfileSummary{Workload: k.wl, TxnTypes: len(p.Txns), Ops: ops, MigrationPoints: migrationPoints(p)}
			mu.Unlock()
			return
		}
		res, err := eng.Schedule(ctx, addict.Mechanism(k.mech), k.wl)
		if err != nil {
			errs[i] = err
			return
		}
		mu.Lock()
		exp.sched[k.wl+"|"+k.mech] = addict.MeasureSweepMetrics(res)
		mu.Unlock()
	}); err != nil {
		return exp, addict.CacheStats{}, err
	}
	for _, err := range errs {
		if err != nil {
			return exp, addict.CacheStats{}, err
		}
	}
	return exp, eng.CacheStats(), nil
}

// scheduleRows renders the expected schedule answers as sweep rows in grid
// order (workload outermost), so the ADDICT checks and the row digest
// apply to serve-warm as to the sweeps.
func (e expected) scheduleRows() ([]byte, []row, error) {
	spec := addict.SweepSpec{Workloads: serveWorkloads, Mechanisms: mechanisms}
	units, err := addict.ExpandSweep(spec)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	em, err := sweep.NewEmitter("jsonl", &buf)
	if err != nil {
		return nil, nil, err
	}
	if err := em.Begin(units); err != nil {
		return nil, nil, err
	}
	for _, u := range units {
		m, ok := e.sched[u.Workload+"|"+string(u.Mechanism)]
		if !ok {
			return nil, nil, fmt.Errorf("no answer for %s", u.ID)
		}
		if err := em.Emit(u, m); err != nil {
			return nil, nil, err
		}
	}
	if err := em.End(); err != nil {
		return nil, nil, err
	}
	rows, err := parseRows(buf.Bytes())
	return buf.Bytes(), rows, err
}

// server is one running addict-serve process.
type server struct {
	cmd     *exec.Cmd
	base    string
	stderr  bytes.Buffer
	done    chan error
	started time.Time
}

// startServer launches addict-serve on the store and returns once it
// answers /healthz, with the seconds that took.
func (r *run) startServer(ctx context.Context, storeDir string) (*server, float64, error) {
	if r.cfg.serveBin == "" {
		return nil, 0, fmt.Errorf("serve-warm needs the addict-serve binary (--serve-bin)")
	}
	t0 := time.Now()
	s := &server{done: make(chan error, 1), started: t0}
	s.cmd = exec.Command(r.cfg.serveBin,
		"-addr", "127.0.0.1:0",
		"-seed", strconv.FormatInt(r.cfg.seed, 10),
		"-scale", strconv.FormatFloat(r.cfg.scale, 'g', -1, 64),
		"-traces", strconv.Itoa(r.cfg.traces),
		"-workers", strconv.Itoa(workers),
		"-max-runs", "8",
		"-store", storeDir)
	s.cmd.Stderr = &s.stderr
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	// The first line names the bound address; the rest is drained so the
	// server never blocks on a full pipe.
	addr := make(chan string, 1)
	go func() {
		br := bufio.NewReader(stdout)
		line, _ := br.ReadString('\n')
		if _, rest, ok := strings.Cut(line, "http://"); ok {
			addr <- strings.Fields(rest)[0]
		}
		close(addr)
		_, _ = io.Copy(io.Discard, br)
		s.done <- s.cmd.Wait()
	}()
	a, ok := <-addr
	if !ok {
		s.stop()
		return nil, 0, fmt.Errorf("addict-serve did not report its address: %s", s.stderr.String())
	}
	s.base = "http://" + a
	c := client.New(s.base, client.WithRetries(0))
	for {
		hctx, cancel := context.WithTimeout(ctx, time.Second)
		err := c.Health(hctx)
		cancel()
		if err == nil {
			break
		}
		if ctx.Err() != nil {
			s.stop()
			return nil, 0, ctx.Err()
		}
		time.Sleep(2 * time.Millisecond)
	}
	return s, since(t0), nil
}

// stop interrupts the server and waits for it to exit (killing it if it
// does not within five seconds).
func (s *server) stop() {
	_ = s.cmd.Process.Signal(os.Interrupt)
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// cpuSeconds is the CPU time (user and system) the exited server used.
func (s *server) cpuSeconds() float64 {
	return (s.cmd.ProcessState.UserTime() + s.cmd.ProcessState.SystemTime()).Seconds()
}

// peakRSSMB is the exited server's resident-set high-water mark.
func (s *server) peakRSSMB() float64 {
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// load runs one repetition's open loop: each request is sent at its due
// time whatever the earlier ones are doing (waiting for a free connection
// if both are busy), and timed from that due time.
func (r *run) load(ctx context.Context, base string, reqs []request, rep int) []outcome {
	// At most `workers` connections: the load generator's whole footprint.
	tr := &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}
	defer tr.CloseIdleConnections()
	c := client.New(base, client.WithHTTPClient(&http.Client{Transport: tr}), client.WithRetries(0))
	out := make([]outcome, len(reqs))
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return reqs[order[a]].due < reqs[order[b]].due })
	var wg sync.WaitGroup
	start := time.Now()
	for n, i := range order {
		q := reqs[i]
		due := start.Add(q.due)
		time.Sleep(time.Until(due))
		late := float64(time.Since(due).Microseconds()) / 1e3
		wg.Add(1)
		go func(i, n int) {
			defer wg.Done()
			o := outcome{req: q, late: late}
			var span int
			if r.tr != nil {
				span = r.tr.start("client."+q.kind, 0, rep*100000+n+1)
			}
			switch q.kind {
			case "schedule":
				o.sched, o.err = c.Schedule(ctx, q.wl, q.mech)
			case "profile":
				o.prof, o.err = c.Profile(ctx, q.wl)
			case "sweep":
				_, o.err = c.Sweep(ctx, computeSpec(q), func(rw client.SweepRow) error { o.rows = append(o.rows, rw); return nil })
			case "sweep-dist":
				_, o.err = c.SweepDistributed(ctx, computeSpec(q), client.DistRequest{LocalWorkers: workers},
					func(rw client.SweepRow) error { o.rows = append(o.rows, rw); return nil })
			}
			if r.tr != nil {
				r.tr.end(span)
			}
			o.latency = float64(time.Since(due).Microseconds()) / 1e3
			out[i] = o
		}(i, n)
	}
	wg.Wait()
	return out
}

// checkRead compares a read response with the in-process answer.
func (e expected) checkRead(o outcome) error {
	if o.err != nil {
		return fmt.Errorf("%s %s %s: %w", o.req.kind, o.req.wl, o.req.mech, o.err)
	}
	switch o.req.kind {
	case "schedule":
		want := e.sched[o.req.wl+"|"+o.req.mech]
		if o.sched.Workload != o.req.wl || o.sched.Mechanism != o.req.mech || o.sched.Metrics != want {
			return fmt.Errorf("schedule %s %s: response differs from the in-process Engine", o.req.wl, o.req.mech)
		}
	case "profile":
		if *o.prof != e.prof[o.req.wl] {
			return fmt.Errorf("profile %s: response %+v, in-process Engine %+v", o.req.wl, *o.prof, e.prof[o.req.wl])
		}
	}
	return nil
}

// checkSweeps recomputes every sweep request on an in-process session over
// the same store and compares the rows. It also returns the events one
// sweep-request unit replays.
func (r *run) checkSweeps(ctx context.Context, storeDir string, outs []outcome) ([]error, float64, error) {
	eng := r.newEngine(addict.WithStore(storeDir, 0))
	if err := eng.StoreErr(); err != nil {
		return nil, 0, err
	}
	set, err := eng.Traces(ctx, computeWorkload)
	if err != nil {
		return nil, 0, err
	}
	errs := make([]error, len(outs))
	err = pool.RunCtx(ctx, workers, len(outs), func(i int) {
		o := outs[i]
		if o.err != nil {
			errs[i] = fmt.Errorf("%s mem=%d: %w", o.req.kind, o.req.mem, o.err)
			return
		}
		var buf bytes.Buffer
		if err := eng.Sweep(ctx, &buf, computeSpec(o.req), "jsonl"); err != nil {
			errs[i] = err
			return
		}
		var want []client.SweepRow
		for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
			var rw client.SweepRow
			if err := json.Unmarshal(line, &rw); err != nil {
				errs[i] = err
				return
			}
			want = append(want, rw)
		}
		if len(want) != len(o.rows) {
			errs[i] = fmt.Errorf("%s mem=%d: %d rows, in-process Engine %d", o.req.kind, o.req.mem, len(o.rows), len(want))
			return
		}
		for j := range want {
			if want[j] != o.rows[j] {
				errs[i] = fmt.Errorf("%s mem=%d: row %s differs from the in-process Engine", o.req.kind, o.req.mem, want[j].ID)
				return
			}
		}
	})
	return errs, float64(setEvents(set)), err
}

// serveWarm measures the serving path: store reads on first touch, memory
// hits after, and small compute sweeps, half of them distributed.
func serveWarm(ctx context.Context, r *run) error {
	storeDir := filepath.Join(r.cfg.workDir, "serve-store")
	t0 := time.Now()
	exp, popStats, err := r.populate(ctx, storeDir)
	if err != nil {
		return err
	}
	populateS := since(t0)
	refRows, rows, err := exp.scheduleRows()
	if err != nil {
		return err
	}
	r.op(checkADDICT(rows))
	if r.tr != nil {
		// The traced decomposition of the populate must reproduce the
		// session's answers: the populate's rows set the reference digest.
		ref := &digestRef{corrupt: r.cfg.corruptDigest}
		_ = ref.check(refRows)
		if err := r.tracedPopulate(ctx, ref, populateS); err != nil {
			return err
		}
	}
	r.set("store.written_mb", float64(popStats.Store.Bytes)/(1<<20))
	quiesce()

	reps := serveReps
	if r.tr != nil {
		reps = 1
	}
	repSeconds := r.cfg.seconds / float64(reps)
	plans := plan(r.cfg.seed, reps, repSeconds, r.cfg.readRate, r.cfg.computeRate)
	var ready, rss []float64
	var cpu, lifetime float64
	var all []outcome
	var vars *client.ServerMetrics
	for rep := 0; rep < reps; rep++ {
		srv, readyS, err := r.startServer(ctx, storeDir)
		if err != nil {
			return err
		}
		outs := r.load(ctx, srv.base, plans[rep], rep)
		vars, err = client.New(srv.base, client.WithRetries(0)).Metrics(ctx)
		srv.stop()
		rss = append(rss, srv.peakRSSMB())
		cpu += srv.cpuSeconds()
		lifetime += since(srv.started)
		if err != nil {
			return fmt.Errorf("server metrics: %w", err)
		}
		ready = append(ready, readyS)
		all = append(all, outs...)
	}

	// Output checks: reads against the populate session's answers, sweeps
	// against a fresh in-process session on the same store.
	var sweeps []outcome
	for _, o := range all {
		if strings.HasPrefix(o.req.kind, "sweep") {
			sweeps = append(sweeps, o)
			continue
		}
		r.op(exp.checkRead(o))
	}
	errs, unitEvents, err := r.checkSweeps(ctx, storeDir, sweeps)
	if err != nil {
		return err
	}
	for _, e := range errs {
		r.op(e)
	}

	var readMs, computeMs, plainMs, distMs, late, schedMs, profMs []float64
	for i, o := range sweeps {
		if errs[i] != nil {
			continue
		}
		computeMs = append(computeMs, o.latency)
		if o.req.kind == "sweep" {
			plainMs = append(plainMs, o.latency)
		} else {
			distMs = append(distMs, o.latency)
		}
	}
	for _, o := range all {
		late = append(late, o.late)
		if o.err != nil || strings.HasPrefix(o.req.kind, "sweep") {
			continue
		}
		readMs = append(readMs, o.latency)
		if o.req.kind == "schedule" {
			schedMs = append(schedMs, o.latency)
		} else {
			profMs = append(profMs, o.latency)
		}
	}
	// The server's CPU time over its lifetime and both CPUs: how far the
	// offered load sits below saturation.
	cpuShare := div(cpu, lifetime*workers)
	fmt.Fprintf(r.out, "serve-warm: populate %.3f s, %d server runs, %d reads, %d sweeps (%d distributed) at %g reads/s + %g sweeps/s, schedule digest %s\n",
		populateS, reps, len(readMs), len(computeMs), len(distMs), r.cfg.readRate, r.cfg.computeRate, digestOf(refRows))
	fmt.Fprintf(r.out, "  read_p50_ms %.3f  read_p90_ms %.3f  read_p99_ms %.3f  compute_p50_ms %.3f  compute_p90_ms %.3f  late_p99_ms %.3f  server_cpu_share %.3f\n",
		median(readMs), quantile(readMs, 0.9), quantile(readMs, 0.99), median(computeMs), quantile(computeMs, 0.9),
		quantile(late, 0.99), cpuShare)
	fmt.Fprintf(r.out, "  server ready seconds: %s\n  server peak RSS MB: %s\n", fmtList(ready), fmtList(rss))

	r.set("setup_s", populateS+median(ready))
	// The read median is the gated read figure: on a 2-vCPU host the p99
	// moves with the host's jitter far more than any bound allows.
	r.set("op_latency_ms", median(readMs))
	// Plain and distributed sweep requests replay the same one-unit grid;
	// both medians count, so a regression on either path shows.
	r.set("sim_events_per_s", div(unitEvents, (median(plainMs)+median(distMs))/2/1e3))
	r.set("peak_rss_mb", median(rss))
	r.set("serve.cpu_share", cpuShare)
	r.setRatios(rows)

	r.set("loadgen.sent", float64(len(all)))
	r.set("loadgen.late_p99_ms", quantile(late, 0.99))
	r.set("loadgen.read_p50_ms", median(readMs))
	r.set("loadgen.read_p99_ms", quantile(readMs, 0.99))
	r.set("loadgen.compute_p50_ms", median(computeMs))
	r.set("loadgen.compute_p90_ms", quantile(computeMs, 0.9))
	r.set("serve.schedule_p50_ms", median(schedMs))
	r.set("serve.profile_p50_ms", median(profMs))
	r.set("serve.sweep_p50_ms", median(plainMs))
	r.set("dist.sweep_p50_ms", median(distMs))
	r.set("dist.overhead_ratio", div(median(distMs), median(plainMs)))
	if vars != nil {
		var comps float64
		for _, n := range vars.Computations {
			comps += float64(n)
		}
		r.set("serve.computations", comps)
		r.set("serve.coalesced_hits", float64(vars.CoalescedHits))
		r.set("serve.rejected", float64(vars.Rejected))
		r.set("pool.lru_hits", float64(vars.EngineCache.Hits))
		r.set("pool.lru_misses", float64(vars.EngineCache.Misses))
		r.set("pool.lru_evictions", float64(vars.EngineCache.Evictions))
		r.set("pool.lru_bytes", float64(vars.EngineCache.Bytes))
		if st := vars.ArtifactStore; st != nil {
			r.set("store.hits", float64(st.Hits))
			r.set("store.misses", float64(st.Misses))
			r.set("store.writes", float64(st.Writes))
		}
		if d := vars.Dist; d != nil {
			// The server keeps only its latest distributed sweep's summary.
			r.set("dist.leases", float64(d.Leases))
			r.set("dist.requeues", float64(d.Requeues))
			r.set("dist.duplicates", float64(d.Duplicates))
			var hits float64
			for _, w := range d.Workers {
				if w.Store != nil {
					hits += float64(w.Store.Hits)
				}
			}
			r.set("dist.worker_store_hits", hits)
		}
	}
	return nil
}

// tracedPopulate decomposes the store populate with spans — generation,
// Algorithm 1, store writes and the read side (read, verify, decode), and
// the replays behind every schedule answer — and checks its rows against
// the session's.
func (r *run) tracedPopulate(ctx context.Context, ref *digestRef, untraced float64) error {
	st, err := store.Open(filepath.Join(r.cfg.workDir, "traced-store"), 0)
	if err != nil {
		return err
	}
	quiesce()
	d := newDecomp(r, 1, st)
	t0 := time.Now()
	root := r.tr.start("bench.setup", 0, d.req)
	err = d.generate(ctx, root, serveWorkloads)
	if err == nil {
		err = d.profile(ctx, root, serveWorkloads)
	}
	var data []byte
	if err == nil {
		data, err = d.replay(ctx, root, addict.SweepSpec{Workloads: serveWorkloads, Mechanisms: mechanisms})
	}
	// The populate itself never reads the store back; the read side is
	// traced after the overhead measurement.
	wall := since(t0)
	if err == nil {
		err = d.readBack(ctx, root)
	}
	r.tr.end(root)
	if err != nil {
		return err
	}
	r.op(ref.check(data))
	rows, err := parseRows(data)
	if err != nil {
		return err
	}
	d.report(r)
	r.setRowStats(rows)
	r.set("sweep.units", float64(len(rows)))
	r.set("tracing.overhead_ratio", div(wall, untraced))
	secs, share := r.tr.layerShares(map[int]bool{root: true})
	printShares(r.out, "store populate (setup)", secs, share)
	return nil
}
