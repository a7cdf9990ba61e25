// Package client is the typed HTTP client for the addict-serve daemon
// (cmd/addict-serve): thin, stateless methods over the serve wire format —
// JSON request/response for profile and schedule, NDJSON streams for sweep
// rows and bench progress — with transparent retry of transport failures.
// The server owns the engine pool and all caching; this package only
// shapes requests and decodes replies, so it is safe to share one Client
// across goroutines.
//
// The exported request and reply types are the serve wire format's one
// declaration: cmd/addict-serve encodes its replies with them, and the
// HTTP plumbing (retry, error mapping) is internal/wire's, shared with the
// distributed-sweep workers.
//
// Design follows the thin-client/server-owned-engine split: requests are
// plain values, replies are decoded into exported wire structs, and a busy
// server (admission limit reached) surfaces as *BusyError carrying the
// server's Retry-After hint rather than being retried behind the caller's
// back — load shedding is the caller's policy decision.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"addict"
	"addict/internal/wire"
)

// BusyError reports a 429 from the admission limiter: the server is at its
// concurrent-run capacity. RetryAfter is the server's hint, floored at one
// second, so a caller that sleeps for it never spins in a hot loop.
type BusyError = wire.BusyError

// StatusError reports any other non-2xx reply, with the server's error
// text when the body carried one.
type StatusError = wire.StatusError

// Client talks to one addict-serve base URL. The zero value is not usable;
// construct with New.
type Client struct {
	base string
	tr   wire.Transport
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (default:
// http.DefaultClient). Streaming endpoints hold the connection for the
// length of the run, so a client with a short Timeout will truncate long
// sweeps — prefer per-call contexts for deadlines.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.tr.HTTP = hc } }

// WithRetries sets how many times a request is re-sent after a transport
// failure (connection refused/reset before a reply arrives; default 2).
// HTTP-level failures — 429 included — are never retried automatically.
func WithRetries(n int) Option { return func(c *Client) { c.tr.Retries = n } }

// New builds a client for a base URL ("http://127.0.0.1:8414").
func New(base string, opts ...Option) *Client {
	c := &Client{base: trimSlash(base), tr: wire.Transport{Retries: 2}}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// BaseURL returns the server base URL the client was built with (trailing
// slashes trimmed) — useful for handing raw endpoints like /metrics to
// tools that speak plain HTTP.
func (c *Client) BaseURL() string { return c.base }

func trimSlash(s string) string {
	for len(s) > 0 && s[len(s)-1] == '/' {
		s = s[:len(s)-1]
	}
	return s
}

// Health checks the daemon's liveness endpoint.
func (c *Client) Health(ctx context.Context) error {
	resp, err := c.tr.Do(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

// Workloads lists every workload name the server resolves: the TPC
// benchmarks plus the encoded synthetic presets.
func (c *Client) Workloads(ctx context.Context) ([]string, error) {
	var reply struct {
		Workloads []string `json:"workloads"`
	}
	if err := c.tr.GetJSON(ctx, c.base+"/v1/workloads", &reply); err != nil {
		return nil, err
	}
	return reply.Workloads, nil
}

// ProfileSummary is the serving view of an Algorithm 1 profile: how many
// transaction types and operations were profiled and how many migration
// points the profile places. (The full profile stays server-side, in the
// session cache, where Schedule consumes it.)
type ProfileSummary struct {
	Workload        string `json:"workload"`
	TxnTypes        int    `json:"txn_types"`
	Ops             int    `json:"ops"`
	MigrationPoints int    `json:"migration_points"`
}

// Profile computes (or serves from the session cache) the migration-point
// profile of a workload name — TPC or encoded "synth:" — and returns its
// summary.
func (c *Client) Profile(ctx context.Context, workload string) (*ProfileSummary, error) {
	in := struct {
		Workload string `json:"workload"`
	}{workload}
	out := &ProfileSummary{}
	if err := c.tr.PostJSON(ctx, c.base+"/v1/profile", in, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ScheduleResult is one (workload, mechanism) replay outcome reduced to
// the sweep metrics.
type ScheduleResult struct {
	Workload  string              `json:"workload"`
	Mechanism string              `json:"mechanism"`
	Metrics   addict.SweepMetrics `json:"metrics"`
}

// Schedule replays a workload's evaluation window under a mechanism
// ("Baseline", "STREX", "SLICC", "ADDICT") on the server's session.
func (c *Client) Schedule(ctx context.Context, workload, mechanism string) (*ScheduleResult, error) {
	in := struct {
		Workload  string `json:"workload"`
		Mechanism string `json:"mechanism"`
	}{workload, mechanism}
	out := &ScheduleResult{}
	if err := c.tr.PostJSON(ctx, c.base+"/v1/schedule", in, out); err != nil {
		return nil, err
	}
	return out, nil
}

// SweepRow is one sweep unit's result as streamed by the server (the
// sweep engine's JSONL row: identifying axis values plus metrics; axis
// fields beyond these three are ignored on decode but present on the
// wire).
type SweepRow struct {
	ID        string `json:"id"`
	Workload  string `json:"workload"`
	Mechanism string `json:"mechanism"`
	addict.SweepMetrics
}

// DistRequest asks the server to execute a sweep distributed: the serving
// process coordinates, contributes LocalWorkers in-process workers
// (server-defaulted to 1 when 0, capped at the server's -workers), and
// listens for remote addict-sweep
// -join workers on Listen (server-chosen loopback port when empty). The
// streamed rows are byte-identical to the same spec swept serially.
type DistRequest struct {
	Listen       string `json:"listen,omitempty"`
	LocalWorkers int    `json:"local_workers,omitempty"`
}

// Sweep executes a declarative grid on the server and streams each unit's
// row to fn in grid-expansion order, returning the row count. Identical
// concurrent sweep requests coalesce server-side into one computation. A
// non-nil error from fn stops the stream and is returned.
func (c *Client) Sweep(ctx context.Context, spec addict.SweepSpec, fn func(SweepRow) error) (int, error) {
	return c.sweep(ctx, spec, nil, fn)
}

// SweepDistributed is Sweep executed by the server's distributed mode (see
// DistRequest). Because the merged output is byte-identical to a serial
// sweep of the same spec, the server caches both under one key — a grid
// already swept serially streams back without coordinating anything.
func (c *Client) SweepDistributed(ctx context.Context, spec addict.SweepSpec, dist DistRequest, fn func(SweepRow) error) (int, error) {
	return c.sweep(ctx, spec, &dist, fn)
}

func (c *Client) sweep(ctx context.Context, spec addict.SweepSpec, dist *DistRequest, fn func(SweepRow) error) (int, error) {
	body, err := json.Marshal(struct {
		Spec addict.SweepSpec `json:"spec"`
		Dist *DistRequest     `json:"dist,omitempty"`
	}{spec, dist})
	if err != nil {
		return 0, err
	}
	resp, err := c.tr.Do(ctx, http.MethodPost, c.base+"/v1/sweep", body)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	n := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var row SweepRow
		if err := json.Unmarshal(line, &row); err != nil {
			return n, fmt.Errorf("client: bad sweep row: %w", err)
		}
		n++
		if fn != nil {
			if err := fn(row); err != nil {
				return n, err
			}
		}
	}
	return n, sc.Err()
}

// BenchRequest scopes a server-side benchmark-harness run. Zero fields
// inherit the server session's defaults; seed, scale, and trace windows
// are fixed per server (they define what the session caches), so a bench
// request chooses only what to measure and how long.
type BenchRequest struct {
	Workloads     []string `json:"workloads,omitempty"`
	Mechanisms    []string `json:"mechanisms,omitempty"`
	MinRuns       int      `json:"min_runs,omitempty"`
	MinDurationMS int      `json:"min_duration_ms,omitempty"`
}

// BenchEvent is one NDJSON line of the bench stream: "progress" events
// carry one harness progress line each, the final "report" event carries
// the full report, and "error" reports a run that failed after the stream
// began.
type BenchEvent struct {
	Type   string              `json:"type"`
	Line   string              `json:"line,omitempty"`
	Report *addict.BenchReport `json:"report,omitempty"`
	Error  string              `json:"error,omitempty"`
}

// Bench runs the replay benchmark harness on the server, invoking
// onProgress (when non-nil) per progress line and returning the final
// report. Identical concurrent bench requests coalesce into one
// measurement; coalesced followers receive the report without the
// leader's intermediate progress lines.
func (c *Client) Bench(ctx context.Context, req BenchRequest, onProgress func(line string)) (*addict.BenchReport, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := c.tr.Do(ctx, http.MethodPost, c.base+"/v1/bench", body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev BenchEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("client: bad bench event: %w", err)
		}
		switch ev.Type {
		case "progress":
			if onProgress != nil {
				onProgress(ev.Line)
			}
		case "report":
			return ev.Report, nil
		case "error":
			return nil, &StatusError{Code: http.StatusInternalServerError, Message: ev.Error}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, errors.New("client: bench stream ended without a report")
}

// CacheCounters is the server's cache statistics on the wire (resident
// weight in approximate bytes, entries, hits/misses/evictions). Store is
// the on-disk artifact store layered under the engine cache; nil when the
// server runs memory-only.
type CacheCounters = addict.CacheStats

// StoreCounters is the server's on-disk artifact store statistics: read
// outcomes, persisted entries, quarantined corruption, GC pressure, and
// the resident set.
type StoreCounters = addict.StoreStats

// DistWorkerCounters is one worker's slice of the server's most recent
// distributed sweep: units leased/completed, leases lost to its crashes
// (requeued), compute failures it reported, discarded duplicate results,
// and its self-reported artifact-store counters.
type DistWorkerCounters = addict.DistWorkerCounters

// DistCounters is the coordinator summary of the server's most recent
// distributed sweep.
type DistCounters = addict.DistSummary

// ServerMetrics is the /debug/vars snapshot: per-endpoint request and
// computation counters, coalescing and admission counters, and the engine
// and response cache statistics. Dist is the most recent distributed
// sweep's coordinator summary; nil when none has run.
type ServerMetrics struct {
	Requests      map[string]int64 `json:"requests"`
	Computations  map[string]int64 `json:"computations"`
	CoalescedHits int64            `json:"coalesced_hits"`
	Rejected      int64            `json:"rejected"`
	ActiveRuns    int64            `json:"active_runs"`
	RunsCancelled int64            `json:"runs_cancelled"`
	EngineCache   CacheCounters    `json:"engine_cache"`
	ResponseCache CacheCounters    `json:"response_cache"`
	ArtifactStore *StoreCounters   `json:"artifact_store,omitempty"`
	Dist          *DistCounters    `json:"dist,omitempty"`
}

// Metrics fetches the server's expvar snapshot.
func (c *Client) Metrics(ctx context.Context) (*ServerMetrics, error) {
	out := &ServerMetrics{}
	if err := c.tr.GetJSON(ctx, c.base+"/debug/vars", out); err != nil {
		return nil, err
	}
	return out, nil
}
