package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"addict/internal/store"
	"addict/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite the dist golden files under testdata/")

// testSpec is a 4-unit grid (2 mechanisms x 2 thread counts, one workload)
// at tiny trace counts — small enough that the integration tests simulate
// it a few times over, large enough that two workers genuinely interleave.
func testSpec() sweep.Spec {
	return sweep.Spec{
		Seed:          7,
		Scale:         0.1,
		ProfileTraces: 120,
		EvalTraces:    60,
		Workloads:     []string{"TPC-B"},
		Mechanisms:    []string{"Baseline", "ADDICT"},
		Threads:       []int{4, 8},
	}
}

// serialBytes runs the spec through the single-process engine — the
// reference output every distributed run must reproduce byte for byte.
func serialBytes(t *testing.T, spec sweep.Spec, format string) []byte {
	t.Helper()
	var buf bytes.Buffer
	em, err := sweep.NewEmitter(format, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := sweep.Run(context.Background(), spec, em, 2, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// storeCache opens the store directory and returns a worker cache on it.
// Every caller gets its own cache and store handle, as separate worker
// processes would, so the directory is the only thing workers share.
func storeCache(t *testing.T, dir string) *sweep.Artifacts {
	t.Helper()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := sweep.Spec{}.Resolved()
	return sweep.NewArtifacts(s.Seed, s.Scale, s.ProfileTraces, s.EvalTraces, 2, 0, st)
}

func firstDiff(a, b []byte) string {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := max(i-60, 0)
			return fmt.Sprintf("byte %d: %q vs %q", i, a[lo:i+1], b[lo:i+1])
		}
	}
	return fmt.Sprintf("length %d vs %d", len(a), len(b))
}

// runDistributed drives one full coordinator + N workers run over a real
// HTTP listener and returns the merged output bytes and final summary.
// Worker errors are returned per worker; the caller decides which matter.
func runDistributed(t *testing.T, spec sweep.Spec, opts Options, workers []WorkerOptions, format string) ([]byte, Summary, []error) {
	t.Helper()
	c, err := NewCoordinator(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	var buf bytes.Buffer
	em, err := sweep.NewEmitter(format, &buf)
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- c.Run(context.Background(), em) }()

	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, wo := range workers {
		wg.Add(1)
		go func(i int, wo WorkerOptions) {
			defer wg.Done()
			_, errs[i] = Work(context.Background(), srv.URL, wo)
		}(i, wo)
	}
	wg.Wait()
	if err := <-runErr; err != nil {
		t.Fatalf("coordinator run: %v (worker errors: %v)", err, errs)
	}
	return buf.Bytes(), c.Summary(), errs
}

// TestDistTwoWorkersMatchesSerial is the tentpole guarantee: a coordinator
// plus two workers rendezvousing on one store directory must merge to the
// exact bytes the single-process engine emits, locked by a golden file.
func TestDistTwoWorkersMatchesSerial(t *testing.T) {
	spec := testSpec()
	want := serialBytes(t, spec, "jsonl")
	if len(want) == 0 {
		t.Fatal("serial sweep produced no output")
	}

	storeDir := t.TempDir()
	got, sum, errs := runDistributed(t, spec, Options{LeaseBatch: 1}, []WorkerOptions{
		{Name: "a", Cache: storeCache(t, storeDir)},
		{Name: "b", Cache: storeCache(t, storeDir)},
	}, "jsonl")
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if !bytes.Equal(got, want) {
		t.Errorf("distributed output diverges from serial: %s", firstDiff(want, got))
	}
	if sum.Completed != sum.Units || !sum.Done {
		t.Errorf("summary reports %d/%d done=%v", sum.Completed, sum.Units, sum.Done)
	}
	var workerDone uint64
	for _, w := range sum.Workers {
		workerDone += w.Completed
	}
	if workerDone != uint64(sum.Units) {
		t.Errorf("per-worker completions sum to %d, want %d", workerDone, sum.Units)
	}

	golden := filepath.Join("testdata", "two_workers.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantGolden, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, wantGolden) {
		t.Errorf("merged output diverges from golden %s: %s", golden, firstDiff(wantGolden, got))
	}
}

// TestDistWorkerCrashMidUnit kills a worker after it has leased units but
// before it completes any — the crash window the lease timeout exists for —
// and asserts the grid still finishes, the leases were requeued, and the
// merged report is still byte-identical to serial.
func TestDistWorkerCrashMidUnit(t *testing.T) {
	spec := testSpec()
	want := serialBytes(t, spec, "jsonl")

	c, err := NewCoordinator(spec, Options{
		LeaseTimeout:   200 * time.Millisecond,
		StragglerAfter: -1, // isolate the expiry path: no speculative rescue
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	var buf bytes.Buffer
	em, err := sweep.NewEmitter("jsonl", &buf)
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- c.Run(context.Background(), em) }()

	// The victim cancels itself inside the lease hook: units are leased to
	// it, nothing will ever be completed or reported — exactly what the
	// coordinator observes when a worker process dies.
	victimCtx, kill := context.WithCancel(context.Background())
	leased := make(chan struct{})
	var once sync.Once
	storeDir := t.TempDir()
	victimCache := storeCache(t, storeDir)
	victimErr := make(chan error, 1)
	go func() {
		_, err := Work(victimCtx, srv.URL, WorkerOptions{
			Name:  "victim",
			Cache: victimCache,
			OnLease: func(ids []string) {
				kill()
				once.Do(func() { close(leased) })
			},
		})
		victimErr <- err
	}()
	select {
	case <-leased:
	case <-time.After(10 * time.Second):
		t.Fatal("victim never leased a unit")
	}
	if err := <-victimErr; err == nil {
		t.Fatal("victim exited cleanly; want a cancellation error")
	}

	// The survivor joins only after the victim is dead, so the victim's
	// leased units must come back through expiry.
	_, err = Work(context.Background(), srv.URL, WorkerOptions{
		Name: "survivor", Cache: storeCache(t, storeDir),
	})
	if err != nil {
		t.Fatalf("survivor: %v", err)
	}
	if err := <-runErr; err != nil {
		t.Fatalf("coordinator run: %v", err)
	}

	if got := buf.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("post-crash merged output diverges from serial: %s", firstDiff(want, got))
	}
	sum := c.Summary()
	if sum.Requeues == 0 {
		t.Error("crash left no requeues; the expiry path did not fire")
	}
	if v, ok := sum.Workers["w1"]; !ok || v.Requeued == 0 {
		t.Errorf("victim's counters do not show the requeue: %+v", sum.Workers)
	}
}

// --- protocol-level tests over a fake clock (no simulation) ---

// postAs drives one handler round-trip directly (no listener), so the
// injected clock is race-free.
func postAs(t *testing.T, h http.Handler, path string, in, out any) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code == http.StatusOK && out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decode %s response: %v", path, err)
		}
	}
	return rec
}

func newTestCoordinator(t *testing.T, opts Options) (*Coordinator, *time.Time) {
	t.Helper()
	c, err := NewCoordinator(testSpec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	return c, &now
}

func join(t *testing.T, h http.Handler, name string) string {
	t.Helper()
	var jr joinResponse
	postAs(t, h, pathJoin, joinRequest{Name: name}, &jr)
	if jr.WorkerID == "" {
		t.Fatal("join assigned no worker id")
	}
	return jr.WorkerID
}

func TestLeaseExpiryRequeuesToNextWorker(t *testing.T) {
	c, now := newTestCoordinator(t, Options{LeaseTimeout: time.Minute, LeaseBatch: 2, StragglerAfter: -1})
	h := c.Handler()
	w1 := join(t, h, "")
	w2 := join(t, h, "")

	var lr leaseResponse
	postAs(t, h, pathLease, leaseRequest{WorkerID: w1, Max: 2}, &lr)
	if len(lr.Units) != 2 {
		t.Fatalf("w1 leased %d units, want 2", len(lr.Units))
	}
	// w1 says nothing for a full lease timeout: its units return to the
	// pool and the next lease hands them to w2 (batch covers the grid).
	*now = now.Add(2 * time.Minute)
	var lr2 leaseResponse
	postAs(t, h, pathLease, leaseRequest{WorkerID: w2, Max: 4}, &lr2)
	if len(lr2.Units) != 2 {
		t.Fatalf("w2 leased %d units after expiry, want 2 (batch cap)", len(lr2.Units))
	}
	if got := c.Summary().Requeues; got != 2 {
		t.Errorf("requeues = %d, want 2", got)
	}
}

func TestFailureBackoffThenAbortAfterRetryBudget(t *testing.T) {
	c, now := newTestCoordinator(t, Options{
		LeaseTimeout: time.Hour, MaxRetries: 2, RetryBackoff: time.Second, StragglerAfter: -1,
	})
	h := c.Handler()
	w1 := join(t, h, "")

	fail := func(idx int, id string) {
		postAs(t, h, pathComplete, completeRequest{
			WorkerID: w1, Index: idx, ID: id, Error: "boom",
		}, &completeResponse{})
	}
	var lr leaseResponse
	postAs(t, h, pathLease, leaseRequest{WorkerID: w1, Max: 1}, &lr)
	u := lr.Units[0]

	// First failure: the unit enters a backoff window, so an immediate
	// re-lease must hand out a different unit, not the failed one.
	fail(u.Index, u.ID)
	var lr2 leaseResponse
	postAs(t, h, pathLease, leaseRequest{WorkerID: w1, Max: 1}, &lr2)
	if len(lr2.Units) == 0 || lr2.Units[0].Index == u.Index {
		t.Fatalf("re-lease during backoff returned %+v, want a different unit", lr2.Units)
	}
	// Past the backoff the failed unit is leasable again; two more
	// failures exhaust MaxRetries=2 and abort the run.
	*now = now.Add(time.Minute)
	var lr3 leaseResponse
	postAs(t, h, pathLease, leaseRequest{WorkerID: w1, Max: 4}, &lr3)
	found := false
	for _, lu := range lr3.Units {
		if lu.Index == u.Index {
			found = true
		}
	}
	if !found {
		t.Fatalf("failed unit not re-leased after backoff: %+v", lr3.Units)
	}
	fail(u.Index, u.ID)
	*now = now.Add(time.Minute)
	fail(u.Index, u.ID)

	var lr4 leaseResponse
	postAs(t, h, pathLease, leaseRequest{WorkerID: w1, Max: 1}, &lr4)
	if lr4.Abort == "" || !strings.Contains(lr4.Abort, "failed 3 times") {
		t.Fatalf("lease after retry exhaustion = %+v, want abort", lr4)
	}
	var em nullEmitter
	if err := c.Run(context.Background(), &em); err == nil {
		t.Error("Run returned nil after abort")
	}
}

func TestStragglerRedispatchFirstCompletionWins(t *testing.T) {
	c, now := newTestCoordinator(t, Options{
		LeaseTimeout: time.Hour, LeaseBatch: 4, StragglerAfter: time.Minute,
	})
	h := c.Handler()
	w1 := join(t, h, "")
	w2 := join(t, h, "")

	var lr leaseResponse
	postAs(t, h, pathLease, leaseRequest{WorkerID: w1, Max: 4}, &lr)
	if len(lr.Units) != 4 {
		t.Fatalf("w1 leased %d units, want the whole grid", len(lr.Units))
	}
	// Young leases: the idle worker waits rather than duplicating.
	var lr2 leaseResponse
	postAs(t, h, pathLease, leaseRequest{WorkerID: w2, Max: 1}, &lr2)
	if len(lr2.Units) != 0 || lr2.WaitMillis == 0 {
		t.Fatalf("idle worker got %+v before StragglerAfter, want a wait hint", lr2)
	}
	// Aged leases: the idle worker is put on a backup copy of one unit.
	*now = now.Add(2 * time.Minute)
	var lr3 leaseResponse
	postAs(t, h, pathLease, leaseRequest{WorkerID: w2, Max: 1}, &lr3)
	if len(lr3.Units) != 1 {
		t.Fatalf("idle worker got %+v after StragglerAfter, want one backup unit", lr3)
	}
	u := lr3.Units[0]

	m := sweep.Metrics{Makespan: 42}
	var cr completeResponse
	postAs(t, h, pathComplete, completeRequest{WorkerID: w2, Index: u.Index, ID: u.ID, Metrics: &m}, &cr)
	if cr.Duplicate {
		t.Error("first completion flagged duplicate")
	}
	var cr2 completeResponse
	postAs(t, h, pathComplete, completeRequest{WorkerID: w1, Index: u.Index, ID: u.ID, Metrics: &m}, &cr2)
	if !cr2.Duplicate {
		t.Error("second completion not flagged duplicate")
	}
	sum := c.Summary()
	if sum.Stragglers != 1 || sum.Duplicates != 1 || sum.Completed != 1 {
		t.Errorf("summary = stragglers %d duplicates %d completed %d, want 1/1/1",
			sum.Stragglers, sum.Duplicates, sum.Completed)
	}
}

func TestCompletionRefreshesWorkerLeases(t *testing.T) {
	c, now := newTestCoordinator(t, Options{LeaseTimeout: time.Minute, LeaseBatch: 4, StragglerAfter: -1})
	h := c.Handler()
	w1 := join(t, h, "")
	w2 := join(t, h, "")

	var lr leaseResponse
	postAs(t, h, pathLease, leaseRequest{WorkerID: w1, Max: 4}, &lr)
	// 50s in (within the lease) w1 completes one unit; that heartbeat must
	// push its remaining deadlines out, so at 90s nothing has expired.
	*now = now.Add(50 * time.Second)
	u := lr.Units[0]
	m := sweep.Metrics{Makespan: 1}
	postAs(t, h, pathComplete, completeRequest{WorkerID: w1, Index: u.Index, ID: u.ID, Metrics: &m}, &completeResponse{})
	*now = now.Add(40 * time.Second)
	var lr2 leaseResponse
	postAs(t, h, pathLease, leaseRequest{WorkerID: w2, Max: 4}, &lr2)
	if len(lr2.Units) != 0 {
		t.Fatalf("live worker's leases expired despite heartbeat: w2 got %+v", lr2.Units)
	}
	if got := c.Summary().Requeues; got != 0 {
		t.Errorf("requeues = %d, want 0", got)
	}
}

func TestJoinRequiredBeforeLease(t *testing.T) {
	c, _ := newTestCoordinator(t, Options{})
	rec := postAs(t, c.Handler(), pathLease, leaseRequest{WorkerID: "ghost", Max: 1}, nil)
	if rec.Code != http.StatusForbidden {
		t.Errorf("lease from unjoined worker = %d, want 403", rec.Code)
	}
}

func TestCompleteRejectsIDMismatch(t *testing.T) {
	c, _ := newTestCoordinator(t, Options{})
	h := c.Handler()
	w1 := join(t, h, "")
	m := sweep.Metrics{}
	rec := postAs(t, h, pathComplete, completeRequest{WorkerID: w1, Index: 0, ID: "wrong", Metrics: &m}, nil)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("completion with wrong unit id = %d, want 400", rec.Code)
	}
}

type nullEmitter struct{}

func (nullEmitter) Begin([]sweep.Unit) error             { return nil }
func (nullEmitter) Emit(sweep.Unit, sweep.Metrics) error { return nil }
func (nullEmitter) End() error                           { return nil }
