package cache

import (
	"fmt"

	"addict/internal/trace"
)

// Config describes one cache level.
type Config struct {
	// SizeBytes is the total capacity; must be a power of two.
	SizeBytes int
	// Ways is the associativity; must divide the number of blocks.
	Ways int
	// Name appears in diagnostics ("L1-I", "L1-D", "L2", "L3").
	Name string
}

// Validate checks the configuration for structural soundness.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.SizeBytes&(c.SizeBytes-1) != 0 {
		return fmt.Errorf("cache %s: size %d is not a positive power of two", c.Name, c.SizeBytes)
	}
	blocks := c.SizeBytes / trace.BlockSize
	if blocks == 0 {
		return fmt.Errorf("cache %s: size %d smaller than one block", c.Name, c.SizeBytes)
	}
	if c.Ways <= 0 || blocks%c.Ways != 0 {
		return fmt.Errorf("cache %s: %d ways does not divide %d blocks", c.Name, c.Ways, blocks)
	}
	sets := blocks / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: %d sets is not a power of two", c.Name, sets)
	}
	return nil
}

// Stats counts cache activity since the last Reset.
type Stats struct {
	Accesses  uint64
	Misses    uint64
	Evictions uint64
}

// Cache is a set-associative cache with true-LRU replacement per set.
// Lines are identified by 64-byte block address; the zero address is valid
// (tracked with an explicit valid bit). Not safe for concurrent use; the
// simulator is single-goroutine by design.
//
// The line array is packed: one word per way, holding the block address
// with the valid bit folded into bit 0 (block addresses are 64-byte
// aligned, so the low six bits are free); 0 means invalid. Packing halves
// the bytes a set scan touches versus an (addr, valid) struct and makes
// the hit probe a single word compare — cache.Access is the innermost loop
// of every replayed event, so the simulator's own cache behavior matters.
//
// Invariant: within a set, invalid ways form a suffix. New and Flush make
// every way invalid (a trivially valid suffix); a fill consumes the way at
// the LRU end, shrinking the suffix by one; a hit only reorders ways in
// front of it; and Invalidate shifts the survivors up and parks the freed
// way at the LRU end, growing the suffix. Access therefore fills without
// scanning for a free way: the set has one exactly when the LRU way is
// invalid.
type Cache struct {
	cfg      Config
	ways     int
	setShift uint
	setMask  uint64
	// lines[set*ways+way]; within a set, index 0 is MRU, ways-1 is LRU.
	// Each word is blockAddr|1 when valid, 0 when invalid.
	lines []uint64
	stats Stats
}

// lineValid is the packed valid bit.
const lineValid = 1

// New builds a cache from cfg; it panics on invalid configuration (a
// programming error — configurations are compiled into experiment setups).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	blocks := cfg.SizeBytes / trace.BlockSize
	sets := blocks / cfg.Ways
	return &Cache{
		cfg:      cfg,
		ways:     cfg.Ways,
		setShift: uint(trace.BlockShift),
		setMask:  uint64(sets - 1),
		lines:    make([]uint64, blocks),
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return len(c.lines) / c.ways }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Name returns the configured name.
func (c *Cache) Name() string { return c.cfg.Name }

// Capacity returns the capacity in blocks.
func (c *Cache) Capacity() int { return len(c.lines) }

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the activity counters without touching contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

func (c *Cache) setIndex(addr uint64) int {
	return int((addr >> c.setShift) & c.setMask)
}

// AccessResult describes the outcome of one cache access.
type AccessResult struct {
	// Hit reports whether the block was resident.
	Hit bool
	// Evicted is the block address displaced by the fill, when Victim.
	Evicted uint64
	// Victim reports whether a valid block was evicted.
	Victim bool
}

// Access looks up the block containing addr, fills on miss, and updates LRU
// order. It returns the outcome, including the identity of any evicted block
// — the signal Algorithm 1 listens for ("addr request requires an eviction",
// line 14). The steady-state path performs no allocation: a hit in the MRU
// way returns without touching the rest of the set, any other outcome is
// one probe scan plus one copy-based shift.
func (c *Cache) Access(addr uint64) AccessResult {
	addr &^= trace.BlockSize - 1
	c.stats.Accesses++
	tag := addr | lineValid
	set := c.setIndex(addr) * c.ways
	ln := c.lines[set : set+c.ways : set+c.ways]
	if ln[0] == tag {
		// Hit in the MRU way: nothing moves.
		return AccessResult{Hit: true}
	}
	for i := 1; i < len(ln); i++ {
		if ln[i] == tag {
			// Hit: move to MRU position.
			copy(ln[1:i+1], ln[:i])
			ln[0] = tag
			return AccessResult{Hit: true}
		}
	}
	c.stats.Misses++
	// Miss: the victim is the LRU way. By the suffix invariant it is
	// invalid exactly when the set still has a free way, so no scan for
	// one is needed.
	res := AccessResult{}
	if victim := ln[c.ways-1]; victim != 0 {
		res.Evicted = victim &^ lineValid
		res.Victim = true
		c.stats.Evictions++
	}
	copy(ln[1:], ln[:c.ways-1])
	ln[0] = tag
	return res
}

// Contains reports whether the block containing addr is resident, without
// modifying state or statistics. SLICC's core-selection heuristic and the
// simulator's coherence checks use it.
func (c *Cache) Contains(addr uint64) bool {
	addr &^= trace.BlockSize - 1
	tag := addr | lineValid
	set := c.setIndex(addr) * c.ways
	for _, l := range c.lines[set : set+c.ways] {
		if l == tag {
			return true
		}
	}
	return false
}

// Invalidate removes the block containing addr if resident, returning whether
// it was. Used for write-invalidate coherence between private L1-D caches.
func (c *Cache) Invalidate(addr uint64) bool {
	addr &^= trace.BlockSize - 1
	tag := addr | lineValid
	set := c.setIndex(addr) * c.ways
	ln := c.lines[set : set+c.ways]
	for i := range ln {
		if ln[i] == tag {
			// Shift the remainder up and park the invalid line at LRU.
			copy(ln[i:], ln[i+1:])
			ln[c.ways-1] = 0
			return true
		}
	}
	return false
}

// Flush invalidates the whole cache — Algorithm 1 "empties the L1-I cache"
// at transaction/operation boundaries and after every eviction.
func (c *Cache) Flush() {
	clear(c.lines)
}

// Resident returns the number of valid blocks.
func (c *Cache) Resident() int {
	n := 0
	for _, l := range c.lines {
		if l != 0 {
			n++
		}
	}
	return n
}

// BankOf maps a block address to one of nBanks NUCA banks (power of two) by
// hashing the block number, matching the banked shared L2 of Table 1.
func BankOf(addr uint64, nBanks int) int {
	if nBanks&(nBanks-1) != 0 || nBanks <= 0 {
		panic(fmt.Sprintf("cache: bank count %d not a positive power of two", nBanks))
	}
	block := addr >> trace.BlockShift
	// Mix the bits so sequential code blocks spread over banks.
	x := block * 0x9e3779b97f4a7c15
	return int((x >> 32) & uint64(nBanks-1))
}
