package addict

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"addict/internal/dist"
	"addict/internal/sweep"
	"addict/internal/wire"
)

// distLinger bounds how long the worker endpoint keeps answering "done"
// after the merged report is complete, so remote workers polling at their
// own cadence exit cleanly instead of hitting a closed port.
const distLinger = 2 * time.Second

// DistSummary is the coordinator's progress/counter snapshot: units
// completed, leases granted, requeues after worker crashes, straggler
// re-dispatches, and per-worker counters including each worker's
// self-reported artifact-store hit rates.
type DistSummary = dist.Summary

// DistWorkerCounters is one worker's slice of a distributed run.
type DistWorkerCounters = dist.WorkerCounters

// DistWorkerOptions configure one worker process; see JoinSweep.
type DistWorkerOptions = dist.WorkerOptions

// DistConfig configures a distributed sweep's coordinator side.
type DistConfig struct {
	// Listen is the address the worker endpoint binds ("127.0.0.1:0"
	// when empty: loopback, kernel-assigned port). OnListen, when set,
	// receives the bound address before any unit is leased — how callers
	// learn the port under ":0" and how CLIs print the join URL.
	Listen   string
	OnListen func(addr string)
	// LocalWorkers is how many in-process workers to run alongside the
	// coordinator (they share the session's store directory and worker
	// bound). 0 means the grid waits entirely for remote workers.
	LocalWorkers int
	// LeaseTimeout is how long a worker may hold a unit before it is
	// presumed crashed and the unit requeued (0 = 60s). The rest of the
	// lease protocol runs on internal/dist defaults: batch 2, 3 retries
	// per failing unit, straggler re-dispatch at half a lease.
	LeaseTimeout time.Duration
}

// SweepDistributed executes a sweep grid across processes: this session
// becomes the coordinator — expanding the spec into stable unit IDs,
// leasing units to workers over HTTP/JSON, requeueing leases whose workers
// crash, retrying failures with backoff, and re-dispatching stragglers
// near the tail — and merges worker results into out in grid order,
// byte-identical to what Sweep would emit for the same spec. Workers join
// with JoinSweep (or addict-sweep -join) and rendezvous on a shared store
// directory so re-dispatched units are cache hits. Base parameters the
// spec leaves zero inherit the session's, exactly as in Sweep.
//
// The returned summary is valid even when err is non-nil (it reports how
// far the run got). Cancellation aborts the run and tells workers to stop.
func (e *Engine) SweepDistributed(ctx context.Context, out io.Writer, spec SweepSpec, format string, cfg DistConfig) (DistSummary, error) {
	em, err := sweep.NewEmitter(format, out)
	if err != nil {
		return DistSummary{}, err
	}
	e.inheritBase(&spec.Seed, &spec.Scale, &spec.ProfileTraces, &spec.EvalTraces)
	c, err := dist.NewCoordinator(spec, dist.Options{LeaseTimeout: cfg.LeaseTimeout})
	if err != nil {
		return DistSummary{}, err
	}

	listen := cfg.Listen
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return DistSummary{}, fmt.Errorf("addict: dist listen: %w", err)
	}
	// Background, not ctx: after a cancel the endpoint must still answer
	// lease requests, so workers learn the run aborted.
	srv := wire.NewServer(context.Background(), c.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	addr := ln.Addr().String()
	if cfg.OnListen != nil {
		cfg.OnListen(addr)
	}

	// Local workers share the session's store directory (the rendezvous
	// point) and worker bound, and talk to the coordinator over loopback —
	// the same path remote workers use, so every worker is exercised
	// identically.
	var wg sync.WaitGroup
	workerErrs := make([]error, cfg.LocalWorkers)
	for i := 0; i < cfg.LocalWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, workerErrs[i] = dist.Work(ctx, "http://"+addr, dist.WorkerOptions{
				Name:        fmt.Sprintf("local%d", i+1),
				StoreDir:    e.storeDir,
				StoreBudget: e.storeBudget,
				Workers:     e.workers,
			})
		}(i)
	}
	if cfg.LocalWorkers > 0 {
		// If every local worker dies while no remote worker has joined,
		// the grid can never finish — fail the run instead of hanging.
		go func() {
			wg.Wait()
			for _, werr := range workerErrs {
				if werr == nil {
					return
				}
			}
			if s := c.Summary(); len(s.Workers) == cfg.LocalWorkers && !s.Done {
				c.Abort("all local workers failed: " + workerErrs[0].Error())
			}
		}()
	}

	runErr := c.Run(ctx, em)
	summary := func() DistSummary { return c.Summary() }

	// Keep the endpoint serving until every joined worker has been told
	// the run is over (or the linger expires — a crashed worker never
	// asks), so workers polling on their own cadence exit 0 instead of
	// dialing a closed port. Local workers drain through the same path.
	wg.Wait()
	for deadline := time.Now().Add(distLinger); time.Now().Before(deadline) && !c.AllReleased(); {
		time.Sleep(20 * time.Millisecond)
	}
	srv.Close()
	<-serveErr

	if runErr != nil {
		return summary(), runErr
	}
	// The merge succeeded, so worker-side errors are not failures of the
	// run — but a run where *no* local worker survived deserves a report.
	if cfg.LocalWorkers > 0 {
		if err := errors.Join(workerErrs...); err != nil && summary().Completed == 0 {
			return summary(), err
		}
	}
	return summary(), nil
}

// JoinSweep runs one worker against a coordinator started by
// SweepDistributed (or addict-sweep -serve-workers) at baseURL, computing
// leased units through the shared artifact path until the grid is done. It
// returns the number of units this worker completed. Point StoreDir at the
// same directory as the coordinator's other workers to rendezvous on one
// content-addressed store.
func JoinSweep(ctx context.Context, baseURL string, opts DistWorkerOptions) (int, error) {
	return dist.Work(ctx, baseURL, opts)
}
