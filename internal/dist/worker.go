package dist

import (
	"context"
	"fmt"
	"strings"

	"addict/internal/store"
	"addict/internal/sweep"
	"addict/internal/wire"
)

// WorkerOptions configure one worker process (or goroutine).
type WorkerOptions struct {
	// Name is a self-reported label for the coordinator's counter summary
	// (hostname, flag value); the coordinator assigns the real identity.
	Name string
	// Cache is the session cache the worker computes on (required), read
	// through Cache.For over the joined spec's base parameters: a
	// session built over those parameters serves the units from what it
	// already holds, any other computes on a fresh cache over the same
	// store and worker bound. A store attached to the cache is the
	// rendezvous point shared with the other workers.
	Cache *sweep.Artifacts
	// OnLease, when set, observes each granted lease's unit IDs before
	// computation starts — a progress hook, and the injection point the
	// crash tests use to kill a worker mid-unit.
	OnLease func(ids []string)
}

// workerRetries is how many times a worker re-sends a request whose
// transport failed (coordinator unreachable): five attempts in all, on the
// wire backoff schedule. Coordinator replies are final — a 4xx is a
// protocol bug or a stale worker, and its 5xx (a reply that failed to
// encode) would repeat on every retry.
const workerRetries = 4

// joinRetries is the join's own, longer budget on the same backoff
// schedule (0.2, 0.4, 0.8, 1.6, 3.2 s, then 5 s a try: 26.2 s of waiting
// in all), so a worker launched alongside its coordinator outlasts the
// coordinator's start-up instead of failing with "connection refused".
// Lease and complete requests go to a coordinator that has already
// answered, and keep workerRetries.
const joinRetries = 9

// Work runs one worker against the coordinator at baseURL until the grid
// is done (returns the number of units this worker completed), the
// coordinator aborts the run, or ctx is cancelled. It joins, expands the
// coordinator's resolved spec locally — refusing to compute if the
// expansion disagrees with the coordinator's grid hash (version skew) —
// then loops lease → sweep.RunUnit → complete. Compute failures are
// reported, not fatal here: the coordinator owns the retry budget.
func Work(ctx context.Context, baseURL string, opts WorkerOptions) (int, error) {
	_, completed, err := work(ctx, baseURL, opts)
	return completed, err
}

// work is Work that also returns the identity the coordinator assigned at
// join ("" if the join failed).
func work(ctx context.Context, baseURL string, opts WorkerOptions) (id string, completed int, err error) {
	base := strings.TrimRight(baseURL, "/")
	tr := wire.Transport{Retries: workerRetries}

	var join joinResponse
	joinTr := wire.Transport{Retries: joinRetries}
	if err := joinTr.PostJSON(ctx, base+pathJoin, joinRequest{Name: opts.Name}, &join); err != nil {
		return "", 0, fmt.Errorf("dist: join: %w", err)
	}
	id = join.WorkerID
	units, err := join.Spec.Expand()
	if err != nil {
		return id, 0, fmt.Errorf("dist: expand coordinator spec: %w", err)
	}
	if len(units) != join.Units || gridHash(join.Spec, units) != join.GridHash {
		return id, 0, fmt.Errorf("dist: local expansion (%d units) disagrees with coordinator grid %s (%d units): version skew, refusing to compute",
			len(units), join.GridHash, join.Units)
	}

	arts := opts.Cache.For(join.Spec.Seed, join.Spec.Scale, join.Spec.ProfileTraces, join.Spec.EvalTraces)
	storeStats := func() *store.Stats {
		if s, ok := arts.StoreStats(); ok {
			return &s
		}
		return nil
	}

	for {
		if err := ctx.Err(); err != nil {
			return id, completed, err
		}
		var lr leaseResponse
		req := leaseRequest{WorkerID: join.WorkerID, Store: storeStats()}
		if err := tr.PostJSON(ctx, base+pathLease, req, &lr); err != nil {
			return id, completed, fmt.Errorf("dist: lease: %w", err)
		}
		switch {
		case lr.Abort != "":
			return id, completed, fmt.Errorf("dist: run aborted by coordinator: %s", lr.Abort)
		case lr.Done:
			return id, completed, nil
		case len(lr.Units) == 0:
			// The coordinator held the request for its poll interval and
			// nothing became leasable: ask again now.
			continue
		}
		if opts.OnLease != nil {
			ids := make([]string, len(lr.Units))
			for i, lu := range lr.Units {
				ids[i] = lu.ID
			}
			opts.OnLease(ids)
		}
		for _, lu := range lr.Units {
			if lu.Index < 0 || lu.Index >= len(units) || units[lu.Index].ID != lu.ID {
				return id, completed, fmt.Errorf("dist: lease names unit %d=%q, local grid disagrees", lu.Index, lu.ID)
			}
			m, runErr := sweep.RunUnit(ctx, arts, units[lu.Index])
			if runErr != nil && ctx.Err() != nil {
				// A crash/cancel, not a unit failure: report nothing and
				// let the lease expire, exactly like a killed process.
				return id, completed, ctx.Err()
			}
			cr := completeRequest{
				WorkerID: join.WorkerID,
				Index:    lu.Index,
				ID:       lu.ID,
				Store:    storeStats(),
			}
			if runErr != nil {
				cr.Error = runErr.Error()
			} else {
				cr.Metrics = &m
			}
			var resp completeResponse
			if err := tr.PostJSON(ctx, base+pathComplete, cr, &resp); err != nil {
				return id, completed, fmt.Errorf("dist: complete %s: %w", lu.ID, err)
			}
			if runErr == nil && !resp.Duplicate {
				completed++
			}
		}
	}
}
