package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"addict/internal/trace"
)

func smallCache(t *testing.T) *Cache {
	t.Helper()
	// 8 blocks, 2 ways, 4 sets.
	return New(Config{SizeBytes: 8 * trace.BlockSize, Ways: 2, Name: "test"})
}

func addrForSet(c *Cache, set, tag int) uint64 {
	return uint64(tag*c.Sets()+set) * trace.BlockSize
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, Ways: 1},
		{SizeBytes: 100, Ways: 1},                 // not a power of two
		{SizeBytes: 1 << 15, Ways: 0},             // zero ways
		{SizeBytes: 1 << 15, Ways: 7},             // does not divide
		{SizeBytes: 32, Ways: 1},                  // smaller than a block
		{SizeBytes: 3 * trace.BlockSize, Ways: 1}, // not pow2
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d (%+v) unexpectedly valid", i, cfg)
		}
	}
	good := Config{SizeBytes: 32 << 10, Ways: 8, Name: "L1-I"}
	if err := good.Validate(); err != nil {
		t.Errorf("Table 1 L1 config invalid: %v", err)
	}
}

func TestAccessMissThenHit(t *testing.T) {
	c := smallCache(t)
	if res := c.Access(0x1000); res.Hit {
		t.Error("first access hit an empty cache")
	}
	if res := c.Access(0x1000); !res.Hit {
		t.Error("second access to same block missed")
	}
	if res := c.Access(0x1001); !res.Hit {
		t.Error("access within same block missed")
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 3 accesses / 1 miss", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache(t)
	a0 := addrForSet(c, 0, 0)
	a1 := addrForSet(c, 0, 1)
	a2 := addrForSet(c, 0, 2)
	c.Access(a0)
	c.Access(a1)
	// Touch a0 so a1 becomes LRU.
	c.Access(a0)
	res := c.Access(a2)
	if res.Hit {
		t.Fatal("conflict access hit")
	}
	if !res.Victim || res.Evicted != a1 {
		t.Errorf("evicted %#x (victim=%v), want LRU %#x", res.Evicted, res.Victim, a1)
	}
	if !c.Contains(a0) || !c.Contains(a2) || c.Contains(a1) {
		t.Error("post-eviction residency wrong")
	}
}

func TestNoVictimWhileSetNotFull(t *testing.T) {
	c := smallCache(t)
	for tag := 0; tag < 2; tag++ {
		res := c.Access(addrForSet(c, 1, tag))
		if res.Victim {
			t.Errorf("eviction reported while set had free ways (tag %d)", tag)
		}
	}
	if c.Stats().Evictions != 0 {
		t.Errorf("evictions = %d, want 0", c.Stats().Evictions)
	}
}

func TestInvalidate(t *testing.T) {
	c := smallCache(t)
	a := addrForSet(c, 2, 0)
	c.Access(a)
	if !c.Invalidate(a) {
		t.Error("Invalidate of resident block returned false")
	}
	if c.Contains(a) {
		t.Error("block still resident after Invalidate")
	}
	if c.Invalidate(a) {
		t.Error("Invalidate of absent block returned true")
	}
	// The freed way must be reused without evicting.
	b := addrForSet(c, 2, 1)
	cc := addrForSet(c, 2, 2)
	c.Access(b)
	if res := c.Access(cc); res.Victim {
		t.Error("eviction despite invalidated free way")
	}
}

func TestFlush(t *testing.T) {
	c := smallCache(t)
	for i := 0; i < 8; i++ {
		c.Access(uint64(i) * trace.BlockSize)
	}
	if c.Resident() != 8 {
		t.Fatalf("resident = %d, want 8", c.Resident())
	}
	c.Flush()
	if c.Resident() != 0 {
		t.Errorf("resident after flush = %d, want 0", c.Resident())
	}
}

func TestStatsResetKeepsContents(t *testing.T) {
	c := smallCache(t)
	c.Access(0x40)
	c.ResetStats()
	if s := c.Stats(); s.Accesses != 0 || s.Misses != 0 {
		t.Errorf("stats after reset = %+v", s)
	}
	if !c.Contains(0x40) {
		t.Error("contents lost on ResetStats")
	}
}

func TestBankOfDistributesAndIsStable(t *testing.T) {
	const nBanks = 16
	counts := make([]int, nBanks)
	for i := 0; i < 1<<14; i++ {
		a := uint64(i) * trace.BlockSize
		b := BankOf(a, nBanks)
		if b != BankOf(a, nBanks) {
			t.Fatal("BankOf not deterministic")
		}
		counts[b]++
	}
	for b, n := range counts {
		if n == 0 {
			t.Errorf("bank %d received no blocks", b)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("BankOf with non-power-of-two banks did not panic")
		}
	}()
	BankOf(0, 12)
}

// Reference model for property tests: a map plus per-set LRU lists.
type refCache struct {
	sets  int
	ways  int
	order [][]uint64 // per set, MRU first
}

func newRef(sets, ways int) *refCache {
	return &refCache{sets: sets, ways: ways, order: make([][]uint64, sets)}
}

func (r *refCache) access(addr uint64) (hit bool, evicted uint64, victim bool) {
	addr &^= trace.BlockSize - 1
	set := int((addr >> trace.BlockShift) & uint64(r.sets-1))
	l := r.order[set]
	for i, a := range l {
		if a == addr {
			copy(l[1:i+1], l[:i])
			l[0] = addr
			return true, 0, false
		}
	}
	if len(l) == r.ways {
		evicted, victim = l[len(l)-1], true
		l = l[:len(l)-1]
	}
	r.order[set] = append([]uint64{addr}, l...)
	return false, evicted, victim
}

// TestAgainstReferenceModel drives the cache and an obviously-correct
// reference with identical random access streams and requires identical
// observable behaviour.
func TestAgainstReferenceModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(Config{SizeBytes: 16 * trace.BlockSize, Ways: 4, Name: "ref"})
		r := newRef(c.Sets(), c.Ways())
		for i := 0; i < 2000; i++ {
			addr := uint64(rng.Intn(64)) * trace.BlockSize
			got := c.Access(addr)
			wantHit, wantEv, wantVic := r.access(addr)
			if got.Hit != wantHit || got.Victim != wantVic || (wantVic && got.Evicted != wantEv) {
				t.Logf("seed %d step %d addr %#x: got %+v want hit=%v ev=%#x vic=%v",
					seed, i, addr, got, wantHit, wantEv, wantVic)
				return false
			}
			if c.Contains(addr) != true {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestResidencyNeverExceedsCapacity is the core capacity invariant under
// arbitrary access/invalidate/flush interleavings.
func TestResidencyNeverExceedsCapacity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(Config{SizeBytes: 8 * trace.BlockSize, Ways: 2, Name: "cap"})
		for i := 0; i < 1000; i++ {
			switch rng.Intn(10) {
			case 0:
				c.Invalidate(uint64(rng.Intn(32)) * trace.BlockSize)
			case 1:
				if rng.Intn(50) == 0 {
					c.Flush()
				}
			default:
				c.Access(uint64(rng.Intn(32)) * trace.BlockSize)
			}
			if c.Resident() > c.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAccess(b *testing.B) {
	c := New(Config{SizeBytes: 32 << 10, Ways: 8, Name: "L1-I"})
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(2048)) * trace.BlockSize
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&4095])
	}
}
