package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"addict/internal/pool"
	"addict/internal/store"
	"addict/internal/sweep"
	"addict/internal/wire"
)

// Options tune the coordinator's lease protocol. The zero value means
// production defaults; tests shrink the timeouts to milliseconds.
type Options struct {
	// LeaseTimeout is how long a worker may hold a unit before the
	// coordinator assumes the worker crashed and requeues it. Any
	// completion from a worker refreshes that worker's other leases, so a
	// live worker chewing through a batch is never timed out mid-batch.
	LeaseTimeout time.Duration // default 60s
	// LeaseBatch caps units granted per lease request (the worker may ask
	// for fewer). Small batches keep the tail short; the shared store
	// makes re-leasing cheap, so there is no reason to hand out big slabs.
	LeaseBatch int // default 2
	// MaxRetries bounds worker-reported compute failures per unit before
	// the whole run aborts. Lease timeouts (crashes) do not count: a
	// deterministic unit that *errors* repeatedly will error everywhere,
	// whereas a crashed worker says nothing about the unit.
	MaxRetries int // default 3
	// RetryBackoff is the base requeue delay after a compute failure,
	// doubling per attempt (pool.Backoff, capped at LeaseTimeout).
	RetryBackoff time.Duration // default 1s
	// StragglerAfter is the lease age past which, once nothing is left to
	// hand out, an idle worker is granted a duplicate lease on a
	// still-running unit (speculative tail execution; first completion
	// wins, the loser is discarded). 0 defaults to LeaseTimeout/2;
	// negative disables re-dispatch.
	StragglerAfter time.Duration
	// PollInterval is the wait hint returned when no unit is leasable.
	PollInterval time.Duration // default 150ms
}

func (o Options) withDefaults() Options {
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = 60 * time.Second
	}
	if o.LeaseBatch <= 0 {
		o.LeaseBatch = 2
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = time.Second
	}
	if o.StragglerAfter == 0 {
		o.StragglerAfter = o.LeaseTimeout / 2
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 150 * time.Millisecond
	}
	return o
}

// unit lifecycle. A unit may hold several live leases at once (straggler
// re-dispatch); it is done the first time any of them completes.
const (
	unitPending = iota
	unitLeased
	unitDone
)

type lease struct {
	worker   string
	granted  time.Time
	deadline time.Time
}

type unitState struct {
	status    int
	attempts  int       // worker-reported compute failures
	notBefore time.Time // earliest re-lease after a failure's backoff
	leases    []lease
	lastErr   string
}

// WorkerCounters is one worker's slice of the run, reported by Summary.
type WorkerCounters struct {
	Name      string `json:"name,omitempty"`
	Leased    uint64 `json:"leased"`
	Completed uint64 `json:"completed"`
	// Requeued counts this worker's leases that expired and were handed
	// back (the crash path); Failed counts compute errors it reported.
	Requeued   uint64 `json:"requeued"`
	Failed     uint64 `json:"failed"`
	Duplicates uint64 `json:"duplicates"`
	// Store is the worker's last self-reported artifact-store snapshot.
	Store *store.Stats `json:"store,omitempty"`
}

// Summary is the coordinator's progress/counter snapshot (Coordinator.Summary).
type Summary struct {
	Units      int                       `json:"units"`
	Completed  int                       `json:"completed"`
	Leases     uint64                    `json:"leases"`
	Requeues   uint64                    `json:"requeues"`
	Failures   uint64                    `json:"failures"`
	Duplicates uint64                    `json:"duplicates"`
	Stragglers uint64                    `json:"straggler_redispatches"`
	Workers    map[string]WorkerCounters `json:"workers"`
	Done       bool                      `json:"done"`
	Abort      string                    `json:"abort,omitempty"`
}

// Coordinator owns one sweep run: the expanded grid, the lease state
// machine, and the in-order merge of worker results. Construct with
// NewCoordinator, mount Handler on a listener, then Run to merge; workers
// connect with Work.
type Coordinator struct {
	spec  sweep.Spec
	units []sweep.Unit
	hash  string
	opts  Options
	now   func() time.Time // injectable clock for tests

	mu         sync.Mutex
	state      []unitState
	results    []sweep.Metrics
	remaining  int
	nextWorker int
	workers    map[string]*WorkerCounters
	// released marks workers that have been told the run is over (done or
	// abort in a lease response) — the signal the embedding layer uses to
	// keep the endpoint alive just long enough for every worker to exit
	// cleanly instead of dialing a closed port.
	released   map[string]bool
	leases     uint64
	requeues   uint64
	failures   uint64
	duplicates uint64
	stragglers uint64

	// done[i] closes when unit i's result is recorded; abortCh closes at
	// most once when the run becomes unwinnable.
	done     []chan struct{}
	abortCh  chan struct{}
	abortMsg string
}

// NewCoordinator expands the spec (resolving every defaulted parameter
// first, so workers receive a spec that cannot drift) and validates it the
// same way the in-process engine does.
func NewCoordinator(spec sweep.Spec, opts Options) (*Coordinator, error) {
	spec = spec.Resolved()
	units, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		spec:      spec,
		units:     units,
		hash:      gridHash(spec, units),
		opts:      opts.withDefaults(),
		now:       time.Now,
		state:     make([]unitState, len(units)),
		results:   make([]sweep.Metrics, len(units)),
		remaining: len(units),
		workers:   map[string]*WorkerCounters{},
		released:  map[string]bool{},
		done:      make([]chan struct{}, len(units)),
		abortCh:   make(chan struct{}),
	}
	for i := range c.done {
		c.done[i] = make(chan struct{})
	}
	return c, nil
}

// Units returns the expanded grid size.
func (c *Coordinator) Units() int { return len(c.units) }

// AllReleased reports whether every joined worker has been told the run is
// over (done or abort). The embedding layer polls this after Run returns
// to decide when the worker endpoint can close without stranding a worker
// mid-poll on a dead port.
func (c *Coordinator) AllReleased() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id := range c.workers {
		if !c.released[id] {
			return false
		}
	}
	return true
}

// Handler returns the coordinator's route table (the /dist/v1/* endpoints),
// ready to mount on any mux or serve directly.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+pathJoin, c.handleJoin)
	mux.HandleFunc("POST "+pathLease, c.handleLease)
	mux.HandleFunc("POST "+pathComplete, c.handleComplete)
	return mux
}

// Run merges worker results into the emitter in expansion order — the
// exact loop sweep.Run uses, waiting on each unit's done channel in
// grid order — so the merged output is byte-identical to a single-process
// run of the same spec. It returns when every unit has been emitted, the
// run aborts (retry budget exhausted, emitter failure), or ctx is
// cancelled; an abort is propagated to workers through their next lease
// response.
func (c *Coordinator) Run(ctx context.Context, em sweep.Emitter) error {
	if err := em.Begin(c.units); err != nil {
		c.abort("emitter: " + err.Error())
		return err
	}
	for i := range c.units {
		select {
		case <-c.done[i]:
		case <-c.abortCh:
			return errors.New("dist: " + c.abortReason())
		case <-ctx.Done():
			c.abort("coordinator cancelled: " + ctx.Err().Error())
			return ctx.Err()
		}
		c.mu.Lock()
		m := c.results[i]
		c.mu.Unlock()
		if err := em.Emit(c.units[i], m); err != nil {
			c.abort("emitter: " + err.Error())
			return err
		}
	}
	if err := em.End(); err != nil {
		c.abort("emitter: " + err.Error())
		return err
	}
	return nil
}

// Abort marks the run unwinnable from outside the protocol — the hook the
// embedding layer uses when it knows no worker can ever finish the grid
// (e.g. every local worker failed and nothing remote has joined). The
// first reason wins; workers see it on their next lease.
func (c *Coordinator) Abort(reason string) { c.abort(reason) }

// abort marks the run unwinnable (first reason wins) and wakes Run.
func (c *Coordinator) abort(reason string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.abortLocked(reason)
}

func (c *Coordinator) abortLocked(reason string) {
	if c.abortMsg != "" {
		return
	}
	c.abortMsg = reason
	close(c.abortCh)
}

func (c *Coordinator) abortReason() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.abortMsg
}

// Summary snapshots the run's counters.
func (c *Coordinator) Summary() Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Summary{
		Units:      len(c.units),
		Completed:  len(c.units) - c.remaining,
		Leases:     c.leases,
		Requeues:   c.requeues,
		Failures:   c.failures,
		Duplicates: c.duplicates,
		Stragglers: c.stragglers,
		Workers:    make(map[string]WorkerCounters, len(c.workers)),
		Done:       c.remaining == 0,
		Abort:      c.abortMsg,
	}
	for id, w := range c.workers {
		cp := *w
		if w.Store != nil {
			st := *w.Store
			cp.Store = &st
		}
		s.Workers[id] = cp
	}
	return s
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if !wire.Decode(w, r, &req) {
		return
	}
	c.mu.Lock()
	c.nextWorker++
	id := fmt.Sprintf("w%d", c.nextWorker)
	c.workers[id] = &WorkerCounters{Name: req.Name}
	c.mu.Unlock()
	wire.WriteJSON(w, joinResponse{
		WorkerID: id,
		Spec:     c.spec,
		Units:    len(c.units),
		GridHash: c.hash,
	})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !wire.Decode(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	wc := c.workers[req.WorkerID]
	if wc == nil {
		wire.WriteError(w, http.StatusForbidden, fmt.Sprintf("unknown worker %q (join first)", req.WorkerID))
		return
	}
	if req.Store != nil {
		st := *req.Store
		wc.Store = &st
	}
	if c.abortMsg != "" {
		c.released[req.WorkerID] = true
		wire.WriteJSON(w, leaseResponse{Abort: c.abortMsg})
		return
	}
	if c.remaining == 0 {
		c.released[req.WorkerID] = true
		wire.WriteJSON(w, leaseResponse{Done: true})
		return
	}
	now := c.now()
	c.expireLocked(now)

	max := req.Max
	if max <= 0 || max > c.opts.LeaseBatch {
		max = c.opts.LeaseBatch
	}
	var grant []leaseUnit
	backoffWait := time.Duration(-1)
	for i := range c.state {
		if len(grant) >= max {
			break
		}
		st := &c.state[i]
		if st.status != unitPending {
			continue
		}
		if st.notBefore.After(now) {
			// In a failure backoff window: leasable later, not now.
			if d := st.notBefore.Sub(now); backoffWait < 0 || d < backoffWait {
				backoffWait = d
			}
			continue
		}
		st.status = unitLeased
		st.leases = append(st.leases, lease{
			worker:   req.WorkerID,
			granted:  now,
			deadline: now.Add(c.opts.LeaseTimeout),
		})
		grant = append(grant, leaseUnit{Index: i, ID: c.units[i].ID})
	}
	if len(grant) == 0 && backoffWait < 0 && c.opts.StragglerAfter >= 0 {
		// Nothing pending at all: every remaining unit is leased. Put the
		// idle worker on the oldest sufficiently-aged running unit as a
		// backup — a crashed or slow holder no longer strands the tail for
		// a full lease timeout. Cap at one duplicate per unit.
		best := -1
		for i := range c.state {
			st := &c.state[i]
			if st.status != unitLeased || len(st.leases) != 1 {
				continue
			}
			l := st.leases[0]
			if l.worker == req.WorkerID || now.Sub(l.granted) < c.opts.StragglerAfter {
				continue
			}
			if best < 0 || l.granted.Before(c.state[best].leases[0].granted) {
				best = i
			}
		}
		if best >= 0 {
			st := &c.state[best]
			st.leases = append(st.leases, lease{
				worker:   req.WorkerID,
				granted:  now,
				deadline: now.Add(c.opts.LeaseTimeout),
			})
			grant = append(grant, leaseUnit{Index: best, ID: c.units[best].ID})
			c.stragglers++
		}
	}
	if len(grant) > 0 {
		c.leases += uint64(len(grant))
		wc.Leased += uint64(len(grant))
		wire.WriteJSON(w, leaseResponse{Units: grant})
		return
	}
	wait := c.opts.PollInterval
	if backoffWait >= 0 && backoffWait < wait {
		wait = backoffWait
	}
	wire.WriteJSON(w, leaseResponse{WaitMillis: int(wait.Milliseconds()) + 1})
}

// expireLocked requeues units whose every lease has passed its deadline —
// the crash-recovery path. Requeues are unbounded (a crash says nothing
// about the unit) but counted.
func (c *Coordinator) expireLocked(now time.Time) {
	for i := range c.state {
		st := &c.state[i]
		if st.status != unitLeased {
			continue
		}
		live := st.leases[:0]
		for _, l := range st.leases {
			if l.deadline.After(now) {
				live = append(live, l)
				continue
			}
			c.requeues++
			if wc := c.workers[l.worker]; wc != nil {
				wc.Requeued++
			}
		}
		st.leases = live
		if len(st.leases) == 0 {
			st.status = unitPending
		}
	}
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if !wire.Decode(w, r, &req) {
		return
	}
	if req.Index < 0 || req.Index >= len(c.units) {
		wire.WriteError(w, http.StatusBadRequest, fmt.Sprintf("unit index %d out of range", req.Index))
		return
	}
	if req.ID != c.units[req.Index].ID {
		wire.WriteError(w, http.StatusBadRequest, fmt.Sprintf("unit %d id mismatch: got %q want %q",
			req.Index, req.ID, c.units[req.Index].ID))
		return
	}
	if req.Error == "" && req.Metrics == nil {
		wire.WriteError(w, http.StatusBadRequest, "completion carries neither metrics nor error")
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	wc := c.workers[req.WorkerID]
	if wc == nil {
		wire.WriteError(w, http.StatusForbidden, fmt.Sprintf("unknown worker %q (join first)", req.WorkerID))
		return
	}
	if req.Store != nil {
		st := *req.Store
		wc.Store = &st
	}
	now := c.now()
	st := &c.state[req.Index]
	if st.status == unitDone {
		// Straggler's loser, or a revenant whose lease expired and whose
		// unit was recomputed elsewhere. Deterministic units make the
		// discard safe.
		c.duplicates++
		wc.Duplicates++
		wire.WriteJSON(w, completeResponse{Duplicate: true})
		return
	}
	// Drop this worker's lease on the unit (expired-lease revenants have
	// none; their result is still valid — determinism again).
	live := st.leases[:0]
	for _, l := range st.leases {
		if l.worker != req.WorkerID {
			live = append(live, l)
		}
	}
	st.leases = live

	if req.Error != "" {
		st.attempts++
		st.lastErr = req.Error
		c.failures++
		wc.Failed++
		if st.attempts > c.opts.MaxRetries {
			c.abortLocked(fmt.Sprintf("unit %s failed %d times, giving up: %s",
				c.units[req.Index].ID, st.attempts, req.Error))
			wire.WriteJSON(w, completeResponse{})
			return
		}
		st.status = unitPending
		st.notBefore = now.Add(pool.Backoff(st.attempts, c.opts.RetryBackoff, c.opts.LeaseTimeout))
		wire.WriteJSON(w, completeResponse{})
		return
	}

	c.results[req.Index] = *req.Metrics
	st.status = unitDone
	st.leases = nil
	c.remaining--
	wc.Completed++
	close(c.done[req.Index])

	// A completion is proof of life: refresh the worker's other leases so
	// a slow batch is never requeued under a live worker.
	for i := range c.state {
		o := &c.state[i]
		if o.status != unitLeased {
			continue
		}
		for j := range o.leases {
			if o.leases[j].worker == req.WorkerID {
				o.leases[j].deadline = now.Add(c.opts.LeaseTimeout)
			}
		}
	}
	wire.WriteJSON(w, completeResponse{})
}
