package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"addict/internal/trace"
)

// TestLRUInclusion is the LRU stack property as an oracle: at the same set
// count, a cache with more ways holds a superset of the blocks a cache with
// fewer ways holds, so for one address stream every hit in the smaller
// cache is a hit in the larger one and more ways never add misses. It runs
// at the Table 1 L1-I geometry (32 KiB, 8-way, 64 sets) and at a 2-way,
// 16-set toy, each against two and four times the ways.
func TestLRUInclusion(t *testing.T) {
	for _, g := range []struct{ sets, ways int }{{64, 8}, {16, 2}} {
		cfg := func(ways int) Config {
			return Config{SizeBytes: g.sets * ways * trace.BlockSize, Ways: ways}
		}
		f := func(seed int64, n uint16) bool {
			rng := rand.New(rand.NewSource(seed))
			small, mid, large := New(cfg(g.ways)), New(cfg(2*g.ways)), New(cfg(4*g.ways))
			// A footprint of about six times the small cache, walked
			// with mostly short strides: plenty of hits and evictions.
			span := uint64(6 * g.sets * g.ways)
			var blk uint64
			for i := 0; i < int(n); i++ {
				if rng.Intn(4) == 0 {
					blk = uint64(rng.Int63n(int64(span)))
				} else {
					blk = (blk + uint64(rng.Intn(3))) % span
				}
				addr := blk * trace.BlockSize
				s, m, l := small.Access(addr).Hit, mid.Access(addr).Hit, large.Access(addr).Hit
				if (s && !m) || (m && !l) {
					t.Logf("%d sets: access %d to %#x hit with fewer ways only (hits %v/%v/%v)", g.sets, i, addr, s, m, l)
					return false
				}
			}
			return small.Stats().Misses >= mid.Stats().Misses && mid.Stats().Misses >= large.Stats().Misses
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%d sets, %d ways: %v", g.sets, g.ways, err)
		}
	}
}
