package cache

import (
	"math/rand"
	"testing"

	"addict/internal/trace"
)

// diffRef is the obviously-correct reference model the packed
// implementation is checked against: per set, an ordered list of resident
// block addresses, MRU first. A hit moves the address to the front; a miss
// inserts at the front, evicting the last address only when the set is
// full.
type diffRef struct {
	sets  []diffSet
	ways  int
	shift uint
	mask  uint64
}

type diffSet struct {
	addrs []uint64 // MRU first; len ≤ ways
}

func newDiffRef(cfg Config) *diffRef {
	blocks := cfg.SizeBytes / trace.BlockSize
	sets := blocks / cfg.Ways
	return &diffRef{
		sets:  make([]diffSet, sets),
		ways:  cfg.Ways,
		shift: uint(trace.BlockShift),
		mask:  uint64(sets - 1),
	}
}

func (r *diffRef) set(addr uint64) *diffSet {
	return &r.sets[(addr>>r.shift)&r.mask]
}

func (r *diffRef) access(addr uint64) AccessResult {
	addr &^= trace.BlockSize - 1
	s := r.set(addr)
	for i, a := range s.addrs {
		if a == addr {
			copy(s.addrs[1:i+1], s.addrs[:i])
			s.addrs[0] = addr
			return AccessResult{Hit: true}
		}
	}
	res := AccessResult{}
	if len(s.addrs) == r.ways {
		res.Evicted = s.addrs[len(s.addrs)-1]
		res.Victim = true
		s.addrs = s.addrs[:len(s.addrs)-1]
	}
	s.addrs = append([]uint64{addr}, s.addrs...)
	return res
}

func (r *diffRef) contains(addr uint64) bool {
	addr &^= trace.BlockSize - 1
	for _, a := range r.set(addr).addrs {
		if a == addr {
			return true
		}
	}
	return false
}

func (r *diffRef) invalidate(addr uint64) bool {
	addr &^= trace.BlockSize - 1
	s := r.set(addr)
	for i, a := range s.addrs {
		if a == addr {
			s.addrs = append(s.addrs[:i], s.addrs[i+1:]...)
			return true
		}
	}
	return false
}

func (r *diffRef) flush() {
	for i := range r.sets {
		r.sets[i].addrs = r.sets[i].addrs[:0]
	}
}

func (r *diffRef) resident() int {
	n := 0
	for i := range r.sets {
		n += len(r.sets[i].addrs)
	}
	return n
}

// TestDifferentialAgainstReference drives the packed-order cache and the
// reference model with 1M pseudorandom operations across several
// geometries (direct-mapped through fully associative) and asserts
// identical hit/miss/eviction sequences, residency, and statistics. This
// is the lock on the packed fast path: any divergence from true-LRU with
// a free-way-first fill policy shows up as a sequence mismatch.
func TestDifferentialAgainstReference(t *testing.T) {
	geometries := []Config{
		{SizeBytes: 4 << 10, Ways: 1, Name: "direct-4K"},
		{SizeBytes: 8 << 10, Ways: 2, Name: "2way-8K"},
		{SizeBytes: 16 << 10, Ways: 4, Name: "4way-16K"},
		{SizeBytes: 32 << 10, Ways: 8, Name: "8way-32K"},
		{SizeBytes: 4 << 10, Ways: 64, Name: "full-4K"},
	}
	const opsPerGeometry = 200_000 // 5 geometries × 200k = 1M operations
	for gi, cfg := range geometries {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			c := New(cfg)
			ref := newDiffRef(cfg)
			rng := rand.New(rand.NewSource(int64(1000 + gi)))
			// Footprint ~4× capacity: plenty of conflict misses and
			// evictions without degenerating to all-miss.
			blocks := uint64(4 * cfg.SizeBytes / trace.BlockSize)
			var evictions uint64
			for op := 0; op < opsPerGeometry; op++ {
				addr := (rng.Uint64() % blocks) * trace.BlockSize
				// Unaligned inputs must behave identically too.
				addr += uint64(rng.Intn(trace.BlockSize))
				r := rng.Intn(100)
				switch {
				case r < 80:
					got := c.Access(addr)
					want := ref.access(addr)
					if got != want {
						t.Fatalf("op %d: Access(%#x) = %+v, reference %+v", op, addr, got, want)
					}
					if got.Victim {
						evictions++
					}
				case r < 90:
					if got, want := c.Contains(addr), ref.contains(addr); got != want {
						t.Fatalf("op %d: Contains(%#x) = %v, reference %v", op, addr, got, want)
					}
				case r < 99:
					if got, want := c.Invalidate(addr), ref.invalidate(addr); got != want {
						t.Fatalf("op %d: Invalidate(%#x) = %v, reference %v", op, addr, got, want)
					}
				default:
					c.Flush()
					ref.flush()
				}
				// Every operation but Flush changes only addr's set;
				// the checkpoint and Flush check all of them.
				checkInvalidSuffix(t, c, op, c.setIndex(addr))
				if op%8192 == 0 || r >= 99 {
					for set := 0; set < c.Sets(); set++ {
						checkInvalidSuffix(t, c, op, set)
					}
				}
				if op%8192 == 0 {
					if got, want := c.Resident(), ref.resident(); got != want {
						t.Fatalf("op %d: Resident() = %d, reference %d", op, got, want)
					}
				}
			}
			if got := c.Stats().Evictions; got != evictions {
				t.Fatalf("eviction counter %d, observed %d victims", got, evictions)
			}
			if got, want := c.Resident(), ref.resident(); got != want {
				t.Fatalf("final residency %d, reference %d", got, want)
			}
		})
	}
}

// checkInvalidSuffix asserts the packed array's invariant directly: in
// the given set, the invalid ways (zero words) form a suffix. Access fills
// without scanning for a free way because of it, so a violation would
// show as a missed free way long before a sequence mismatch.
func checkInvalidSuffix(t *testing.T, c *Cache, op, set int) {
	t.Helper()
	ways := c.lines[set*c.ways : (set+1)*c.ways]
	free := -1
	for w, line := range ways {
		switch {
		case line&lineValid == 0 && line != 0:
			t.Fatalf("op %d: set %d way %d holds %#x: invalid but not zero", op, set, w, line)
		case line == 0 && free < 0:
			free = w
		case line != 0 && free >= 0:
			t.Fatalf("op %d: set %d way %d is valid after invalid way %d", op, set, w, free)
		}
	}
}

// TestAccessZeroAlloc asserts the access path never allocates — it is the
// innermost loop of every replayed event.
func TestAccessZeroAlloc(t *testing.T) {
	c := New(Config{SizeBytes: 16 << 10, Ways: 4, Name: "alloc-probe"})
	rng := rand.New(rand.NewSource(7))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = (rng.Uint64() % 1024) * trace.BlockSize
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, a := range addrs {
			c.Access(a)
			c.Contains(a)
		}
		c.Invalidate(addrs[0])
	})
	if allocs != 0 {
		t.Fatalf("access path allocated %.1f times per run, want 0", allocs)
	}
}

// BenchmarkCacheAccess measures the packed access path over a mixed
// hit/miss stream (the per-event unit of Algorithm 1's replay loop).
func BenchmarkCacheAccess(b *testing.B) {
	c := New(Config{SizeBytes: 32 << 10, Ways: 8, Name: "bench"})
	rng := rand.New(rand.NewSource(11))
	addrs := make([]uint64, 8192)
	for i := range addrs {
		addrs[i] = (rng.Uint64() % 2048) * trace.BlockSize
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i%len(addrs)])
	}
}
