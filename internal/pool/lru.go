package pool

import (
	"context"
	"errors"
	"sync"
)

// CacheStats is a point-in-time snapshot of a cache's counters. Hits,
// Misses, and Evictions are monotonic over the cache's lifetime; Entries
// and Bytes describe the resident set at snapshot time. The JSON tags are
// the serving wire format (cmd/addict-serve exposes these via expvar).
type CacheStats struct {
	// Hits counts calls served without running the computation: a resident
	// entry, or a wait on another caller's in-flight computation.
	Hits uint64 `json:"hits"`
	// Misses counts computations started (single-flight leaders).
	Misses uint64 `json:"misses"`
	// Evictions counts entries removed to fit the weight budget.
	Evictions uint64 `json:"evictions"`
	// Entries is the resident entry count.
	Entries int64 `json:"entries"`
	// Bytes is the resident weight sum (the unit is whatever the weigh
	// function returns; the artifact caches weigh approximate bytes).
	Bytes int64 `json:"bytes"`
}

// lruCell is one in-flight or resident LRU computation. After done is
// closed, val/err/weight are immutable; prev/next/resident are guarded by
// the owning cache's mutex.
type lruCell[V any] struct {
	key        string
	done       chan struct{}
	val        V
	err        error
	weight     int64
	prev, next *lruCell[V]
	resident   bool
}

// errFlightPanic marks a cell whose computation panicked: the panic
// propagates to the leader's caller, while waiters observe a failed cell
// (evicted, retryable) instead of blocking forever.
var errFlightPanic = errors.New("pool: flight computation panicked")

// LRU is a concurrency-safe, single-flight memoization cache with a weight
// budget. The first caller of a key (the leader) runs the computation
// while later callers block until it is ready, so a successful computation
// runs once per key no matter how many concurrent callers. A computation
// that returns an error is NOT cached: the key is evicted, and each waiter
// whose own context is still live retries (becoming the new leader) rather
// than inheriting the leader's error. One cancelled request therefore
// neither poisons a long-lived session's cache nor fails concurrent
// requests that were not cancelled.
//
// Residency is bounded by weight: every completed value is weighed, and
// the least-recently-used completed entries are dropped until the total
// fits. In-flight computations are never evicted (a live key is never
// computed twice), and eviction never corrupts a value a caller is about
// to receive — an evicted entry's value still returns to every caller
// already waiting on it; only later callers recompute.
//
// A budget <= 0 means unbounded. The session artifact cache
// (sweep.Artifacts) runs unbounded by default and is bounded by serving
// deployments (Engine WithCacheBudget, addict-serve -cache-budget).
type LRU[V any] struct {
	mu         sync.Mutex
	budget     int64
	weigh      func(V) int64
	m          map[string]*lruCell[V]
	head, tail *lruCell[V] // recency list over resident cells; head = most recent

	used      int64
	entries   int64
	hits      uint64
	misses    uint64
	evictions uint64
}

// NewLRU builds a cache with the given weight budget (<= 0 = unbounded).
// weigh maps a completed value to its weight; nil weighs every entry 1,
// making the budget a max entry count.
func NewLRU[V any](budget int64, weigh func(V) int64) *LRU[V] {
	if weigh == nil {
		weigh = func(V) int64 { return 1 }
	}
	return &LRU[V]{budget: budget, weigh: weigh}
}

// Stats returns a snapshot of the cache counters.
func (l *LRU[V]) Stats() CacheStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return CacheStats{
		Hits:      l.hits,
		Misses:    l.misses,
		Evictions: l.evictions,
		Entries:   l.entries,
		Bytes:     l.used,
	}
}

// Forget drops key's resident value so the next Do computes afresh. An
// in-flight computation is left alone (its waiters keep their
// single-flight coalescing); only a completed, resident entry is dropped.
// Callers that want coalescing without memoization — the serving daemon's
// bench endpoint, where a measurement must be fresh per burst but
// identical concurrent requests should still compute once — call Forget
// after Do returns.
func (l *LRU[V]) Forget(key string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if c, ok := l.m[key]; ok && c.resident {
		l.drop(c)
	}
}

// Do returns the cached value for key, computing it with fn on a miss.
// fn should observe ctx (cancellation between its own work items) and
// return ctx's error when cancelled; Do itself uses ctx to stop waiting on
// another caller's computation and to decide whether a failed shared
// computation is worth retrying, so a cancelled waiter returns promptly
// even while an unrelated leader keeps computing. A panic inside fn
// propagates to the leader's caller; waiters see the key evicted and
// retry, re-encountering the panic in their own call stacks (fail-fast,
// never a deadlock). A hit moves the entry to the front of the eviction
// order.
func (l *LRU[V]) Do(ctx context.Context, key string, fn func() (V, error)) (V, error) {
	for {
		l.mu.Lock()
		if l.m == nil {
			l.m = make(map[string]*lruCell[V])
		}
		c, ok := l.m[key]
		if !ok {
			c = &lruCell[V]{key: key, done: make(chan struct{})}
			l.m[key] = c
			l.misses++
			l.mu.Unlock()
			l.lead(c, fn)
			return c.val, c.err
		}
		if c.resident {
			// Resident cells are always completed successes: touch and
			// serve without unlocking twice.
			l.moveToFront(c)
			l.hits++
			l.mu.Unlock()
			return c.val, nil
		}
		l.mu.Unlock()

		select {
		case <-c.done:
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
		if c.err == nil {
			l.mu.Lock()
			l.hits++
			l.mu.Unlock()
			return c.val, nil
		}
		// The leader failed and its cell was evicted; retry (possibly
		// becoming the new leader) unless this caller's own context died.
		if err := ctx.Err(); err != nil {
			var zero V
			return zero, err
		}
	}
}

// lead runs the computation as key's leader, then publishes the outcome:
// success inserts the weighed value at the front of the recency list and
// evicts down to budget; failure (or a panic in fn) evicts the cell so the
// key is retryable.
func (l *LRU[V]) lead(c *lruCell[V], fn func() (V, error)) {
	completed := false
	defer func() {
		if !completed {
			c.err = errFlightPanic
		}
		l.mu.Lock()
		if c.err != nil {
			// Only evict our own cell: a retrying waiter may already have
			// installed a successor.
			if l.m[c.key] == c {
				delete(l.m, c.key)
			}
		} else {
			c.weight = l.weigh(c.val)
			l.insert(c)
		}
		l.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	completed = true
}

// insert puts a completed cell at the front of the recency list and evicts
// the least-recently-used cells until the budget fits. Caller holds mu.
func (l *LRU[V]) insert(c *lruCell[V]) {
	c.resident = true
	l.used += c.weight
	l.entries++
	l.pushFront(c)
	l.evictOver()
}

// evictOver drops tail cells while the resident weight exceeds the budget.
// A single entry heavier than the whole budget is evicted immediately —
// its value still returns to the callers of the computation that produced
// it, it just never becomes resident. Caller holds mu.
func (l *LRU[V]) evictOver() {
	for l.budget > 0 && l.used > l.budget && l.tail != nil {
		l.drop(l.tail)
		l.evictions++
	}
}

// drop removes a resident cell from the cache. Caller holds mu.
func (l *LRU[V]) drop(c *lruCell[V]) {
	l.unlink(c)
	c.resident = false
	l.used -= c.weight
	l.entries--
	delete(l.m, c.key)
}

// pushFront links a cell at the head of the recency list. Caller holds mu.
func (l *LRU[V]) pushFront(c *lruCell[V]) {
	c.prev = nil
	c.next = l.head
	if l.head != nil {
		l.head.prev = c
	}
	l.head = c
	if l.tail == nil {
		l.tail = c
	}
}

// unlink removes a cell from the recency list. Caller holds mu.
func (l *LRU[V]) unlink(c *lruCell[V]) {
	if c.prev != nil {
		c.prev.next = c.next
	} else {
		l.head = c.next
	}
	if c.next != nil {
		c.next.prev = c.prev
	} else {
		l.tail = c.prev
	}
	c.prev, c.next = nil, nil
}

// moveToFront touches a resident cell. Caller holds mu.
func (l *LRU[V]) moveToFront(c *lruCell[V]) {
	if l.head == c {
		return
	}
	l.unlink(c)
	l.pushFront(c)
}
