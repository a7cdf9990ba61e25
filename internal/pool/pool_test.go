package pool

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		const n = 37
		var hits [n]int32
		RunCtx(context.Background(), workers, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Errorf("workers=%d: index %d ran %d times, want 1", workers, i, h)
			}
		}
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, max int32
	RunCtx(context.Background(), workers, 64, func(int) {
		c := atomic.AddInt32(&cur, 1)
		for {
			m := atomic.LoadInt32(&max)
			if c <= m || atomic.CompareAndSwapInt32(&max, m, c) {
				break
			}
		}
		atomic.AddInt32(&cur, -1)
	})
	if got := atomic.LoadInt32(&max); got > workers {
		t.Errorf("observed %d concurrent calls, want <= %d", got, workers)
	}
}

func TestRunZeroItems(t *testing.T) {
	ran := false
	RunCtx(context.Background(), 4, 0, func(int) { ran = true })
	if ran {
		t.Error("fn ran with n=0")
	}
}

func TestRunCtxCancelStopsDispatch(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran int32
		err := RunCtx(ctx, workers, 1000, func(i int) {
			if atomic.AddInt32(&ran, 1) == 3 {
				cancel()
			}
		})
		cancel()
		if err == nil {
			t.Errorf("workers=%d: RunCtx after cancellation returned nil", workers)
		}
		// Items already dispatched may complete, but dispatch must stop:
		// nowhere near all 1000 items run.
		if n := atomic.LoadInt32(&ran); n > 100 {
			t.Errorf("workers=%d: %d items ran after cancellation", workers, n)
		}
	}
}

func TestRunCtxNilErrorWhenComplete(t *testing.T) {
	var hits int32
	if err := RunCtx(context.Background(), 4, 16, func(int) { atomic.AddInt32(&hits, 1) }); err != nil {
		t.Fatal(err)
	}
	if hits != 16 {
		t.Errorf("ran %d items, want 16", hits)
	}
}

func TestNormWorkers(t *testing.T) {
	if got := NormWorkers(7); got != 7 {
		t.Errorf("NormWorkers(7) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	for _, w := range []int{0, -1} {
		if got := NormWorkers(w); got != want {
			t.Errorf("NormWorkers(%d) = %d, want GOMAXPROCS %d", w, got, want)
		}
	}
}

func TestFlightSingleFlight(t *testing.T) {
	var f Flight[int]
	var calls int32
	const goroutines = 16
	results := make([]int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, err := f.Do(context.Background(), "k", func() (int, error) {
				atomic.AddInt32(&calls, 1)
				time.Sleep(10 * time.Millisecond)
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[g] = v
		}(g)
	}
	wg.Wait()
	if calls != 1 {
		t.Errorf("computation ran %d times, want 1", calls)
	}
	for g, v := range results {
		if v != 42 {
			t.Errorf("goroutine %d saw %d, want 42", g, v)
		}
	}
}

func TestFlightErrorEvictsAndRetries(t *testing.T) {
	var f Flight[string]
	ctx := context.Background()
	boom := errors.New("boom")
	if _, err := f.Do(ctx, "k", func() (string, error) { return "", boom }); err != boom {
		t.Fatalf("first Do error = %v, want boom", err)
	}
	v, err := f.Do(ctx, "k", func() (string, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("retry after error = (%q, %v), want (ok, nil)", v, err)
	}
	// The successful value is now cached.
	v, err = f.Do(ctx, "k", func() (string, error) { return "recomputed", nil })
	if err != nil || v != "ok" {
		t.Fatalf("cached Do = (%q, %v), want (ok, nil)", v, err)
	}
}

// TestFlightWaiterRetriesAfterLeaderCancellation: a waiter whose own
// context is live must not inherit the leader's cancellation — it retries
// and computes the value itself.
func TestFlightWaiterRetriesAfterLeaderCancellation(t *testing.T) {
	var f Flight[int]
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	entered := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := f.Do(leaderCtx, "k", func() (int, error) {
			close(entered)
			<-leaderCtx.Done() // simulate cancellation mid-computation
			return 0, leaderCtx.Err()
		})
		if err == nil {
			t.Error("cancelled leader returned nil error")
		}
	}()

	<-entered // the waiter joins strictly after the leader owns the cell
	waiterDone := make(chan struct{})
	var waiterVal int
	var waiterErr error
	go func() {
		defer close(waiterDone)
		waiterVal, waiterErr = f.Do(context.Background(), "k", func() (int, error) { return 7, nil })
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter block on the cell
	cancelLeader()
	<-waiterDone
	wg.Wait()
	if waiterErr != nil || waiterVal != 7 {
		t.Fatalf("live-context waiter got (%d, %v), want (7, nil)", waiterVal, waiterErr)
	}
	// The waiter's cancelled-context path still reports its own error.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.Do(dead, "other", func() (int, error) { return 0, context.Canceled }); err == nil {
		t.Error("dead-context caller returned nil error")
	}
}

// TestFlightLeaderPanicUnblocksWaiters: a panicking computation must not
// leave waiters blocked forever (the OnceMap regression the error path
// introduced); the waiter retries and succeeds.
func TestFlightLeaderPanicUnblocksWaiters(t *testing.T) {
	var f Flight[int]
	entered := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if recover() == nil {
				t.Error("leader panic did not propagate")
			}
		}()
		f.Do(context.Background(), "k", func() (int, error) {
			close(entered)
			time.Sleep(20 * time.Millisecond)
			panic("boom")
		})
	}()
	<-entered
	done := make(chan struct{})
	var v int
	var err error
	go func() {
		defer close(done)
		v, err = f.Do(context.Background(), "k", func() (int, error) { return 9, nil })
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter deadlocked after leader panic")
	}
	wg.Wait()
	if err != nil || v != 9 {
		t.Fatalf("waiter after panic got (%d, %v), want (9, nil)", v, err)
	}
}

// TestFlightWaiterCancelsPromptly: a waiter whose context dies must return
// immediately, not block until the unrelated leader finishes.
func TestFlightWaiterCancelsPromptly(t *testing.T) {
	var f Flight[int]
	entered := make(chan struct{})
	release := make(chan struct{})
	go func() {
		f.Do(context.Background(), "k", func() (int, error) {
			close(entered)
			<-release // a leader that computes for a long time
			return 1, nil
		})
	}()
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := f.Do(ctx, "k", func() (int, error) { return 2, nil })
	elapsed := time.Since(start)
	close(release)
	if err == nil {
		t.Fatal("cancelled waiter returned nil error")
	}
	if elapsed > time.Second {
		t.Errorf("cancelled waiter blocked %v on the leader", elapsed)
	}
}
