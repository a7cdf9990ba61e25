// Command addict-serve exposes one long-lived addict.Engine session over
// HTTP/JSON: profile, schedule, sweep, and bench requests resolve workload
// names through the one registry (TPC names and encoded "synth:" names),
// run on the session's shared artifact cache, and stream long results as
// NDJSON. The server hardens the session for multi-tenant use: identical
// concurrent requests coalesce into one computation, an admission limiter
// sheds load with 429 + Retry-After instead of queueing unboundedly, the
// artifact and response caches are weight-bounded LRUs, and every request
// context is wired straight into the pipeline so a disconnected client
// cancels its run. Counters are exposed at /debug/vars.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"addict"
	"addict/client"
	"addict/internal/pool"
	"addict/internal/wire"
)

// errBusy marks a request refused by the admission limiter; handlers map
// it to 429 + Retry-After.
var errBusy = errors.New("server at run capacity")

// statusErr carries an HTTP status through a compute path.
type statusErr struct {
	code int
	msg  string
}

func (e *statusErr) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &statusErr{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// server is the serving state around one Engine session. Responses of the
// deterministic endpoints (profile, schedule, sweep) are memoized in a
// weight-bounded LRU — coalescing identical concurrent requests AND
// serving repeats from memory, since a session's answer for a given
// request never changes. Bench requests are measurements, so they only
// coalesce in flight (Flight + Forget): concurrent identical requests
// share one run, but a later request measures afresh.
type server struct {
	eng        *addict.Engine
	slots      chan struct{} // admission tokens; nil = unlimited
	retryAfter time.Duration
	resp       *pool.LRU[[]byte]
	bench      pool.Flight[*addict.BenchReport]

	vars          *expvar.Map
	reqs          *expvar.Map // per-endpoint requests received
	comps         *expvar.Map // per-endpoint computations actually run
	coalesced     *expvar.Int // requests served by another request's work
	rejected      *expvar.Int // requests refused by the admission limiter
	activeRuns    *expvar.Int // computations currently holding a slot
	runsCancelled *expvar.Int // requests that ended with a cancelled context

	// lastDist holds the most recent distributed sweep's coordinator
	// summary (*addict.DistSummary): per-worker units leased / completed /
	// requeued and store counters, exposed under "dist" in /debug/vars and
	// flattened into /metrics.
	lastDist atomic.Value
}

// newServer assembles the serving state. maxRuns bounds concurrently
// admitted computations (<= 0 = unlimited); respBudget bounds the
// response cache's resident bytes (<= 0 = unbounded). The expvar map is
// NOT published to the global registry — main does that once — so tests
// can build many servers in one process.
func newServer(eng *addict.Engine, maxRuns int, retryAfter time.Duration, respBudget int64) *server {
	s := &server{
		eng:        eng,
		retryAfter: retryAfter,
		resp: pool.NewLRU[[]byte](respBudget, func(b []byte) int64 {
			return int64(len(b)) + 128
		}),
		vars:          new(expvar.Map).Init(),
		reqs:          new(expvar.Map).Init(),
		comps:         new(expvar.Map).Init(),
		coalesced:     new(expvar.Int),
		rejected:      new(expvar.Int),
		activeRuns:    new(expvar.Int),
		runsCancelled: new(expvar.Int),
	}
	if maxRuns > 0 {
		s.slots = make(chan struct{}, maxRuns)
	}
	s.vars.Set("requests", s.reqs)
	s.vars.Set("computations", s.comps)
	s.vars.Set("coalesced_hits", s.coalesced)
	s.vars.Set("rejected", s.rejected)
	s.vars.Set("active_runs", s.activeRuns)
	s.vars.Set("runs_cancelled", s.runsCancelled)
	s.vars.Set("engine_cache", expvar.Func(func() any { return eng.CacheStats() }))
	s.vars.Set("response_cache", expvar.Func(func() any { return s.resp.Stats() }))
	s.vars.Set("artifact_store", expvar.Func(func() any { return eng.CacheStats().Store }))
	s.vars.Set("dist", expvar.Func(func() any { return s.lastDist.Load() }))
	return s
}

// handler builds the route table.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	mux.HandleFunc("POST /v1/profile", s.handleProfile)
	mux.HandleFunc("POST /v1/schedule", s.handleSchedule)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/bench", s.handleBench)
	mux.HandleFunc("GET /debug/vars", s.handleVars)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// acquire takes an admission slot (false = at capacity, shed the request).
// Slots are taken inside compute closures, after the caches: cache hits
// and coalesced followers never consume one.
func (s *server) acquire() bool {
	if s.slots != nil {
		select {
		case s.slots <- struct{}{}:
		default:
			return false
		}
	}
	s.activeRuns.Add(1)
	return true
}

func (s *server) release() {
	if s.slots != nil {
		<-s.slots
	}
	s.activeRuns.Add(-1)
}

// fail maps a compute error to its HTTP reply. All compute paths defer
// body writes until success, so the status line here is always writable.
func (s *server) fail(w http.ResponseWriter, err error) {
	var se *statusErr
	switch {
	case errors.Is(err, errBusy):
		s.rejected.Add(1)
		secs := int(math.Ceil(s.retryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		wire.WriteError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client is (usually) gone; the write is best-effort, the
		// counter is the observable part.
		s.runsCancelled.Add(1)
		wire.WriteError(w, http.StatusServiceUnavailable, "run cancelled")
	case errors.As(err, &se):
		wire.WriteError(w, se.code, se.msg)
	default:
		wire.WriteError(w, http.StatusInternalServerError, err.Error())
	}
}

// respond serves one deterministic endpoint through the response cache:
// the first request for a key computes (holding an admission slot), every
// concurrent identical request waits on that computation, and later
// repeats hit the memoized bytes until evicted. A cancelled leader's cell
// is evicted; surviving waiters retry and one becomes the new leader.
func (s *server) respond(w http.ResponseWriter, r *http.Request, endpoint, key, contentType string,
	compute func(ctx context.Context) ([]byte, error)) {
	led := false
	body, err := s.resp.Do(r.Context(), key, func() ([]byte, error) {
		led = true
		if !s.acquire() {
			return nil, errBusy
		}
		defer s.release()
		s.comps.Add(endpoint, 1)
		return compute(r.Context())
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	if !led {
		s.coalesced.Add(1)
	}
	w.Header().Set("Content-Type", contentType)
	_, _ = w.Write(body)
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *server) handleVars(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprint(w, s.vars.String())
}

func (s *server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	s.reqs.Add("workloads", 1)
	names := []string{"TPC-B", "TPC-C", "TPC-E"}
	for _, p := range addict.SynthPresets() {
		names = append(names, "synth:"+p)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Workloads []string `json:"workloads"`
	}{names})
}

func (s *server) handleProfile(w http.ResponseWriter, r *http.Request) {
	s.reqs.Add("profile", 1)
	var req struct {
		Workload string `json:"workload"`
	}
	if !wire.Decode(w, r, &req) {
		return
	}
	if err := addict.ValidateWorkload(req.Workload); err != nil {
		s.fail(w, badRequest("%v", err))
		return
	}
	s.respond(w, r, "profile", "profile\x00"+req.Workload, "application/json",
		func(ctx context.Context) ([]byte, error) {
			p, err := s.eng.Profile(ctx, req.Workload)
			if err != nil {
				return nil, err
			}
			ops, points := 0, 0
			for _, t := range p.Txns {
				ops += len(t.Ops)
				for _, op := range t.Ops {
					points += len(op.Seq)
				}
			}
			return json.Marshal(client.ProfileSummary{
				Workload: req.Workload, TxnTypes: len(p.Txns), Ops: ops, MigrationPoints: points,
			})
		})
}

// parseMechanism resolves a mechanism name against every shipped
// mechanism family (case-insensitive, with a nearest-name suggestion on a
// typo), mapped to a 400 for the client.
func parseMechanism(name string) (addict.Mechanism, error) {
	m, err := addict.ParseMechanism(name)
	if err != nil {
		return "", badRequest("%v", err)
	}
	return m, nil
}

func (s *server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	s.reqs.Add("schedule", 1)
	var req struct {
		Workload  string `json:"workload"`
		Mechanism string `json:"mechanism"`
	}
	if !wire.Decode(w, r, &req) {
		return
	}
	if err := addict.ValidateWorkload(req.Workload); err != nil {
		s.fail(w, badRequest("%v", err))
		return
	}
	mech, err := parseMechanism(req.Mechanism)
	if err != nil {
		s.fail(w, err)
		return
	}
	key := "schedule\x00" + req.Workload + "\x00" + req.Mechanism
	s.respond(w, r, "schedule", key, "application/json",
		func(ctx context.Context) ([]byte, error) {
			res, err := s.eng.Schedule(ctx, mech, req.Workload)
			if err != nil {
				return nil, err
			}
			return json.Marshal(client.ScheduleResult{
				Workload: req.Workload, Mechanism: req.Mechanism, Metrics: addict.MeasureSweepMetrics(res),
			})
		})
}

// handleSweep runs a grid serially, or distributed when the request
// carries a dist block: a coordinator inside the serving process, its
// LocalWorkers in-process workers, and remote addict-sweep -join processes
// sharing the grid through the listen address.
func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.reqs.Add("sweep", 1)
	var req struct {
		Spec addict.SweepSpec    `json:"spec"`
		Dist *client.DistRequest `json:"dist,omitempty"`
	}
	if !wire.Decode(w, r, &req) {
		return
	}
	if _, err := addict.ExpandSweep(req.Spec); err != nil {
		s.fail(w, badRequest("%v", err))
		return
	}
	// The decoded spec re-marshals with a fixed field order, so every
	// spelling of one grid lands on one cache key. The dist block is
	// deliberately NOT part of the key: a distributed run's merged output
	// is byte-identical to the single-process run of the same spec, so
	// serial and distributed requests for one grid share one cache cell
	// (and a cached grid is never re-coordinated).
	canon, err := json.Marshal(req.Spec)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.respond(w, r, "sweep", "sweep\x00"+string(canon), "application/x-ndjson",
		func(ctx context.Context) ([]byte, error) {
			// Buffered, not streamed: the buffer is what makes identical
			// concurrent sweeps coalesce and repeats free. Cancellation
			// still propagates — the engine stops between units.
			var buf bytes.Buffer
			if req.Dist != nil {
				cfg := addict.DistConfig{
					Listen:       req.Dist.Listen,
					LocalWorkers: req.Dist.LocalWorkers,
				}
				if cfg.LocalWorkers <= 0 {
					// At least one in-process worker, so a request whose
					// remote workers never join cannot wedge the grid.
					cfg.LocalWorkers = 1
				}
				sum, err := s.eng.SweepDistributed(ctx, &buf, req.Spec, "jsonl", cfg)
				s.lastDist.Store(&sum)
				if err != nil {
					return nil, err
				}
				return buf.Bytes(), nil
			}
			if err := s.eng.Sweep(ctx, &buf, req.Spec, "jsonl"); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		})
}

// progressWriter turns the engine's per-cell progress lines into
// "progress" NDJSON events, flushing each so clients see them live.
type progressWriter struct {
	w     http.ResponseWriter
	buf   []byte
	wrote bool
}

func (p *progressWriter) Write(b []byte) (int, error) {
	p.buf = append(p.buf, b...)
	for {
		i := bytes.IndexByte(p.buf, '\n')
		if i < 0 {
			return len(b), nil
		}
		line := string(p.buf[:i])
		p.buf = p.buf[i+1:]
		if !p.wrote {
			p.w.Header().Set("Content-Type", "application/x-ndjson")
			p.wrote = true
		}
		if err := writeEvent(p.w, client.BenchEvent{Type: "progress", Line: line}); err != nil {
			return len(b), err
		}
	}
}

func writeEvent(w http.ResponseWriter, ev client.BenchEvent) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	if _, err := w.Write(append(data, '\n')); err != nil {
		return err
	}
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	return nil
}

func (s *server) handleBench(w http.ResponseWriter, r *http.Request) {
	s.reqs.Add("bench", 1)
	// Seed, scale, and trace windows are session properties (they define
	// what the artifact cache holds), so the request scopes only what to
	// measure and how long.
	var req client.BenchRequest
	if !wire.Decode(w, r, &req) {
		return
	}
	for _, name := range req.Workloads {
		if err := addict.ValidateWorkload(name); err != nil {
			s.fail(w, badRequest("%v", err))
			return
		}
	}
	cfg := addict.BenchConfig{
		Workloads:   req.Workloads,
		MinRuns:     req.MinRuns,
		MinDuration: time.Duration(req.MinDurationMS) * time.Millisecond,
	}
	for _, m := range req.Mechanisms {
		mech, err := parseMechanism(m)
		if err != nil {
			s.fail(w, err)
			return
		}
		cfg.Mechanisms = append(cfg.Mechanisms, mech)
	}
	canon, err := json.Marshal(req)
	if err != nil {
		s.fail(w, err)
		return
	}
	key := "bench\x00" + string(canon)

	// Coalesce in flight only: Forget after Do keeps bench a measurement
	// (fresh per burst) rather than a memoized answer. The leader streams
	// its progress lines; coalesced followers receive the report alone.
	pw := &progressWriter{w: w}
	led := false
	report, err := s.bench.Do(r.Context(), key, func() (*addict.BenchReport, error) {
		led = true
		if !s.acquire() {
			return nil, errBusy
		}
		defer s.release()
		s.comps.Add("bench", 1)
		return s.eng.BenchProgress(r.Context(), cfg, pw)
	})
	if led {
		s.bench.Forget(key)
	}
	if err != nil {
		if led && pw.wrote {
			// The stream already started; the error must travel in-band.
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				s.runsCancelled.Add(1)
			}
			_ = writeEvent(w, client.BenchEvent{Type: "error", Error: err.Error()})
			return
		}
		s.fail(w, err)
		return
	}
	if !led {
		s.coalesced.Add(1)
	}
	if !pw.wrote {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	_ = writeEvent(w, client.BenchEvent{Type: "report", Report: report})
}
