package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"addict/internal/sweep"
)

// The tests in this file run the coordinator with a one-hour PollInterval,
// so a held lease request can only be answered by a wake: a lost wakeup
// shows as a test that times out, not as a slow pass. CI repeats them
// under the race detector (-run 'Wake|Held').

// oneUnitSpec is the smallest grid there is: one workload, one mechanism,
// one thread count, at tiny trace windows.
func oneUnitSpec() sweep.Spec {
	return sweep.Spec{
		Seed:          7,
		Scale:         0.05,
		ProfileTraces: 20,
		EvalTraces:    20,
		Workloads:     []string{"TPC-B"},
		Mechanisms:    []string{"Baseline"},
		Threads:       []int{4},
	}
}

var holdOpts = Options{PollInterval: time.Hour, LeaseTimeout: time.Hour, StragglerAfter: -1}

// heldLease sends one lease request on its own goroutine and delivers the
// recorder once the handler returns.
func heldLease(ctx context.Context, h http.Handler, worker string) <-chan *httptest.ResponseRecorder {
	body, _ := json.Marshal(leaseRequest{WorkerID: worker})
	req := httptest.NewRequest(http.MethodPost, pathLease, bytes.NewReader(body)).WithContext(ctx)
	out := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		out <- rec
	}()
	return out
}

// mustHold fails the test if the request answers within a short window:
// nothing is leasable, so it must be held.
func mustHold(t *testing.T, answer <-chan *httptest.ResponseRecorder) {
	t.Helper()
	select {
	case rec := <-answer:
		t.Fatalf("idle lease answered at once (%d %s), want it held", rec.Code, rec.Body.String())
	case <-time.After(50 * time.Millisecond):
	}
}

func awaitLease(t *testing.T, answer <-chan *httptest.ResponseRecorder) *httptest.ResponseRecorder {
	t.Helper()
	select {
	case rec := <-answer:
		return rec
	case <-time.After(10 * time.Second):
		t.Fatal("held lease request was never woken")
		return nil
	}
}

func decodeLease(t *testing.T, rec *httptest.ResponseRecorder) leaseResponse {
	t.Helper()
	var lr leaseResponse
	if rec.Code != http.StatusOK {
		t.Fatalf("lease answered %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &lr); err != nil {
		t.Fatalf("decode lease response %q: %v", rec.Body.String(), err)
	}
	return lr
}

func TestHeldLeaseWakesDoneOnCompletion(t *testing.T) {
	c, err := NewCoordinator(oneUnitSpec(), holdOpts)
	if err != nil {
		t.Fatal(err)
	}
	h := c.Handler()
	w1, w2 := join(t, h, "a"), join(t, h, "b")
	var lr leaseResponse
	postAs(t, h, pathLease, leaseRequest{WorkerID: w1}, &lr)
	if len(lr.Units) != 1 {
		t.Fatalf("w1 leased %+v, want the only unit", lr)
	}

	answer := heldLease(context.Background(), h, w2)
	mustHold(t, answer)
	u := lr.Units[0]
	m := sweep.Metrics{Makespan: 42}
	postAs(t, h, pathComplete, completeRequest{WorkerID: w1, Index: u.Index, ID: u.ID, Metrics: &m}, &completeResponse{})
	if got := decodeLease(t, awaitLease(t, answer)); !got.Done {
		t.Fatalf("held lease woke with %+v, want done", got)
	}
}

func TestAbortWakesHeldLease(t *testing.T) {
	c, err := NewCoordinator(oneUnitSpec(), holdOpts)
	if err != nil {
		t.Fatal(err)
	}
	h := c.Handler()
	w1, w2 := join(t, h, "a"), join(t, h, "b")
	postAs(t, h, pathLease, leaseRequest{WorkerID: w1}, &leaseResponse{})

	answer := heldLease(context.Background(), h, w2)
	mustHold(t, answer)
	c.Abort("operator stop")
	if got := decodeLease(t, awaitLease(t, answer)); got.Abort != "operator stop" {
		t.Fatalf("held lease woke with %+v, want the abort reason", got)
	}
}

func TestHeldLeaseReturnsOnCancel(t *testing.T) {
	c, err := NewCoordinator(oneUnitSpec(), holdOpts)
	if err != nil {
		t.Fatal(err)
	}
	h := c.Handler()
	w1, w2 := join(t, h, "a"), join(t, h, "b")
	postAs(t, h, pathLease, leaseRequest{WorkerID: w1}, &leaseResponse{})

	ctx, cancel := context.WithCancel(context.Background())
	answer := heldLease(ctx, h, w2)
	mustHold(t, answer)
	cancel()
	if rec := awaitLease(t, answer); rec.Body.Len() != 0 {
		t.Fatalf("cancelled held lease wrote %q, want no answer", rec.Body.String())
	}
}

func TestReleaseWakesWaitReleased(t *testing.T) {
	c, err := NewCoordinator(oneUnitSpec(), holdOpts)
	if err != nil {
		t.Fatal(err)
	}
	h := c.Handler()
	w1 := join(t, h, "a")
	var lr leaseResponse
	postAs(t, h, pathLease, leaseRequest{WorkerID: w1}, &lr)
	u := lr.Units[0]
	m := sweep.Metrics{Makespan: 42}
	postAs(t, h, pathComplete, completeRequest{WorkerID: w1, Index: u.Index, ID: u.ID, Metrics: &m}, &completeResponse{})

	// With an hour's bound, only the release can end the wait.
	released := make(chan struct{})
	go func() {
		c.WaitReleased(time.Hour)
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("WaitReleased returned before the worker was told the run is over")
	case <-time.After(50 * time.Millisecond):
	}
	postAs(t, h, pathLease, leaseRequest{WorkerID: w1}, &leaseResponse{})
	select {
	case <-released:
	case <-time.After(10 * time.Second):
		t.Fatal("the release never woke WaitReleased")
	}
}

// TestHeldWorkersFinishOneUnitGrid runs the whole protocol over HTTP: two
// workers on a one-unit grid, so one computes while the other's lease is
// held. The held worker must learn the grid is done from the completion,
// not from a poll, and every goroutine returns well inside the deadline.
func TestHeldWorkersFinishOneUnitGrid(t *testing.T) {
	spec := oneUnitSpec()
	c, err := NewCoordinator(spec, holdOpts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	runErr := make(chan error, 1)
	go func() { runErr <- c.Run(ctx, nullEmitter{}) }()
	s := spec.Resolved()
	cache := sweep.NewArtifacts(s.Seed, s.Scale, s.ProfileTraces, s.EvalTraces, 1, 0, nil)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = Work(ctx, srv.URL, WorkerOptions{Cache: cache})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	if err := <-runErr; err != nil {
		t.Fatalf("coordinator run: %v", err)
	}
	if sum := c.Summary(); !sum.Done || sum.Completed != 1 {
		t.Errorf("summary reports %d/%d done=%v", sum.Completed, sum.Units, sum.Done)
	}
}

// TestWorkLocalReleasesOnReturn: a WorkLocal worker cancelled mid-unit is
// never told the run is over, yet once it has returned WaitReleased does
// not wait for it; a remote worker that has not been told still holds the
// wait until the bound.
func TestWorkLocalReleasesOnReturn(t *testing.T) {
	spec := oneUnitSpec()
	c, err := NewCoordinator(spec, holdOpts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	s := spec.Resolved()
	cache := sweep.NewArtifacts(s.Seed, s.Scale, s.ProfileTraces, s.EvalTraces, 1, 0, nil)

	ctx, cancel := context.WithCancel(context.Background())
	_, err = c.WorkLocal(ctx, srv.URL, WorkerOptions{Cache: cache, OnLease: func([]string) { cancel() }})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled local worker: err = %v, want context.Canceled", err)
	}
	start := time.Now()
	c.WaitReleased(time.Hour)
	if d := time.Since(start); d > time.Second {
		t.Errorf("WaitReleased waited %v for a local worker that had returned", d)
	}

	join(t, c.Handler(), "remote")
	start = time.Now()
	c.WaitReleased(100 * time.Millisecond)
	if d := time.Since(start); d < 100*time.Millisecond {
		t.Errorf("WaitReleased returned after %v with a remote worker not yet released", d)
	}
}
