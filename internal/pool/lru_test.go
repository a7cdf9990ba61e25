package pool

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLRUEvictionOrder: with a unit-weight budget of 3, touching an entry
// protects it — the least-recently-used entry is the one that recomputes.
func TestLRUEvictionOrder(t *testing.T) {
	l := NewLRU[string](3, nil)
	ctx := context.Background()
	computes := map[string]int{}
	get := func(key string) string {
		v, err := l.Do(ctx, key, func() (string, error) {
			computes[key]++
			return "v:" + key, nil
		})
		if err != nil {
			t.Fatalf("Do(%q): %v", key, err)
		}
		return v
	}
	get("a")
	get("b")
	get("c")
	get("a") // touch: recency now a, c, b
	get("d") // evicts b
	if get("b"); computes["b"] != 2 {
		t.Errorf("b should have been evicted and recomputed, computes=%v", computes)
	}
	if get("a"); computes["a"] != 1 {
		t.Errorf("touched entry a was evicted, computes=%v", computes)
	}
	st := l.Stats()
	if st.Entries != 3 || st.Bytes != 3 {
		t.Errorf("want 3 resident unit-weight entries, got %+v", st)
	}
	if st.Evictions < 2 {
		t.Errorf("want >= 2 evictions (b, then one for b's return), got %+v", st)
	}
}

// TestLRUUnbounded: budget <= 0 never evicts.
func TestLRUUnbounded(t *testing.T) {
	l := NewLRU[int](0, func(int) int64 { return 1 << 20 })
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, err := l.Do(ctx, key, func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Evictions != 0 || st.Entries != 50 || st.Misses != 50 {
		t.Errorf("unbounded cache evicted or lost entries: %+v", st)
	}
}

// TestLRUErrorNotCached: a failed computation is evicted, the key retries.
func TestLRUErrorNotCached(t *testing.T) {
	l := NewLRU[int](10, nil)
	ctx := context.Background()
	boom := errors.New("boom")
	if _, err := l.Do(ctx, "k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("want leader to see its error, got %v", err)
	}
	v, err := l.Do(ctx, "k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry after failure: got %d, %v", v, err)
	}
	if st := l.Stats(); st.Entries != 1 {
		t.Errorf("want only the successful entry resident, got %+v", st)
	}
}

// TestLRUOversizedEntry: an entry heavier than the whole budget still
// returns its value, it just never becomes resident.
func TestLRUOversizedEntry(t *testing.T) {
	l := NewLRU[int](5, func(int) int64 { return 100 })
	ctx := context.Background()
	v, err := l.Do(ctx, "big", func() (int, error) { return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("oversized entry: got %d, %v", v, err)
	}
	st := l.Stats()
	if st.Entries != 0 || st.Bytes != 0 || st.Evictions != 1 {
		t.Errorf("oversized entry should be immediately evicted: %+v", st)
	}
}

// TestLRUSingleFlight: concurrent callers of one key share one
// computation even while it is in flight.
func TestLRUSingleFlight(t *testing.T) {
	l := NewLRU[int](100, nil)
	ctx := context.Background()
	var computes atomic.Int64
	gate := make(chan struct{})
	const n = 8
	var wg sync.WaitGroup
	results := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := l.Do(ctx, "k", func() (int, error) {
				computes.Add(1)
				<-gate // hold the computation so every caller piles up
				return 9, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}()
	}
	close(gate)
	wg.Wait()
	if computes.Load() != 1 {
		t.Errorf("want 1 computation for %d concurrent callers, got %d", n, computes.Load())
	}
	for i, v := range results {
		if v != 9 {
			t.Errorf("caller %d got %d, want 9", i, v)
		}
	}
}

// TestLRUStressRace hammers a tiny-budget cache from many goroutines: the
// returned value is always the key's (no lost or crossed entries), and
// the eviction counter only ever grows.
func TestLRUStressRace(t *testing.T) {
	l := NewLRU[string](6, nil)
	ctx := context.Background()
	const workers, iters, keys = 8, 300, 16
	stop := make(chan struct{})
	var monotonic sync.WaitGroup
	monotonic.Add(1)
	go func() {
		defer monotonic.Done()
		var last CacheStats
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := l.Stats()
			if st.Evictions < last.Evictions || st.Hits < last.Hits || st.Misses < last.Misses {
				t.Errorf("counters went backwards: %+v then %+v", last, st)
				return
			}
			last = st
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("k%d", (w*31+i*7)%keys)
				v, err := l.Do(ctx, key, func() (string, error) { return "v:" + key, nil })
				if err != nil {
					t.Errorf("Do(%q): %v", key, err)
					return
				}
				if v != "v:"+key {
					t.Errorf("Do(%q) returned %q — crossed entries", key, v)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	monotonic.Wait()
	st := l.Stats()
	if st.Bytes > 6 || st.Entries > 6 {
		t.Errorf("resident set exceeds budget after quiescence: %+v", st)
	}
	if st.Evictions == 0 {
		t.Errorf("16 keys through a 6-entry budget never evicted: %+v", st)
	}
}

// TestFlightStatsAndForget: misses/hits count computations and coalesced
// serves; Forget drops a resident value (next Do recomputes) but leaves an
// in-flight computation coalescing.
func TestFlightStatsAndForget(t *testing.T) {
	f := NewLRU[int](0, nil)
	ctx := context.Background()
	var computes atomic.Int64
	compute := func() (int, error) { computes.Add(1); return 1, nil }
	_, _ = f.Do(ctx, "k", compute)
	_, _ = f.Do(ctx, "k", compute)
	if st := f.Stats(); st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Errorf("want 1 miss / 1 hit / 1 entry, got %+v", st)
	}
	f.Forget("k")
	if st := f.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Evictions != 0 {
		t.Errorf("Forget should drop the entry without counting an eviction, got %+v", st)
	}
	f.Forget("absent") // a no-op
	_, _ = f.Do(ctx, "k", compute)
	if computes.Load() != 2 {
		t.Errorf("Do after Forget should recompute, computes=%d", computes.Load())
	}

	// Forget during flight: the in-flight cell stays, waiters still
	// coalesce onto it.
	g := NewLRU[int](0, nil)
	gate := make(chan struct{})
	entered := make(chan struct{})
	var inflight atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = g.Do(ctx, "k", func() (int, error) {
			inflight.Add(1)
			close(entered)
			<-gate
			return 5, nil
		})
	}()
	<-entered
	g.Forget("k") // must be a no-op: computation is live
	waiter := make(chan int, 1)
	go func() {
		v, _ := g.Do(ctx, "k", func() (int, error) {
			inflight.Add(1)
			return 6, nil
		})
		waiter <- v
	}()
	close(gate)
	<-done
	if v := <-waiter; v != 5 {
		t.Errorf("waiter got %d, want the in-flight leader's 5", v)
	}
	if inflight.Load() != 1 {
		t.Errorf("Forget on an in-flight key caused a second computation")
	}
}
