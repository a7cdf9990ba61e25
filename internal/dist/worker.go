package dist

import (
	"context"
	"fmt"
	"strings"
	"time"

	"addict/internal/pool"
	"addict/internal/store"
	"addict/internal/sweep"
	"addict/internal/wire"
)

// WorkerOptions configure one worker process (or goroutine).
type WorkerOptions struct {
	// Name is a self-reported label for the coordinator's counter summary
	// (hostname, flag value); the coordinator assigns the real identity.
	Name string
	// StoreDir attaches the shared on-disk artifact store ("" = memory
	// only — correct but cold). StoreBudget caps it (0 = unbounded).
	StoreDir    string
	StoreBudget int64
	// Workers bounds artifact-generation parallelism inside this worker
	// (values below 1 select all CPUs, the package-wide convention).
	Workers int
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

// Work runs one worker against the coordinator at baseURL until the grid
// is done (returns the number of units this worker completed), the
// coordinator aborts the run, or ctx is cancelled. It joins, expands the
// coordinator's resolved spec locally — refusing to compute if the
// expansion disagrees with the coordinator's grid hash (version skew) —
// then loops lease → sweep.RunUnit → complete. Compute failures are
// reported, not fatal here: the coordinator owns the retry budget.
func Work(ctx context.Context, baseURL string, opts WorkerOptions) (int, error) {
	base := strings.TrimRight(baseURL, "/")
	tr := wire.Transport{Retries: workerRetries}

	var join joinResponse
	if err := tr.PostJSON(ctx, base+pathJoin, joinRequest{Name: opts.Name}, &join); err != nil {
		return 0, fmt.Errorf("dist: join: %w", err)
	}
	units, err := join.Spec.Expand()
	if err != nil {
		return 0, fmt.Errorf("dist: expand coordinator spec: %w", err)
	}
	if len(units) != join.Units || gridHash(join.Spec, units) != join.GridHash {
		return 0, fmt.Errorf("dist: local expansion (%d units) disagrees with coordinator grid %s (%d units): version skew, refusing to compute",
			len(units), join.GridHash, join.Units)
	}

	arts := sweep.NewArtifacts(join.Spec.Seed, join.Spec.Scale,
		join.Spec.ProfileTraces, join.Spec.EvalTraces, pool.NormWorkers(opts.Workers))
	if opts.StoreDir != "" {
		st, err := store.Open(opts.StoreDir, opts.StoreBudget)
		if err != nil {
			return 0, fmt.Errorf("dist: open store: %w", err)
		}
		arts.SetStore(st)
	}
	storeStats := func() *store.Stats {
		if s, ok := arts.StoreStats(); ok {
			return &s
		}
		return nil
	}

	completed := 0
	for {
		if err := ctx.Err(); err != nil {
			return completed, err
		}
		var lr leaseResponse
		req := leaseRequest{WorkerID: join.WorkerID, Store: storeStats()}
		if err := tr.PostJSON(ctx, base+pathLease, req, &lr); err != nil {
			return completed, fmt.Errorf("dist: lease: %w", err)
		}
		switch {
		case lr.Abort != "":
			return completed, fmt.Errorf("dist: run aborted by coordinator: %s", lr.Abort)
		case lr.Done:
			return completed, nil
		case len(lr.Units) == 0:
			wait := time.Duration(lr.WaitMillis) * time.Millisecond
			if wait <= 0 {
				wait = 100 * time.Millisecond
			}
			select {
			case <-ctx.Done():
				return completed, ctx.Err()
			case <-time.After(wait):
			}
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
				return completed, fmt.Errorf("dist: lease names unit %d=%q, local grid disagrees", lu.Index, lu.ID)
			}
			m, runErr := sweep.RunUnit(ctx, arts, units[lu.Index])
			if runErr != nil && ctx.Err() != nil {
				// A crash/cancel, not a unit failure: report nothing and
				// let the lease expire, exactly like a killed process.
				return completed, ctx.Err()
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
				return completed, fmt.Errorf("dist: complete %s: %w", lu.ID, err)
			}
			if runErr == nil && !resp.Duplicate {
				completed++
			}
		}
	}
}
