package sim

import (
	"addict/internal/cache"
	"addict/internal/trace"
)

// Level identifies where an access was served.
type Level uint8

// Service levels.
const (
	ServedL1 Level = iota
	ServedPrivateL2
	ServedShared
	ServedMem
	ServedNone // marker events
)

// AccessOutcome reports what one executed event did to the memory system —
// the signal the scheduling mechanisms key off (SLICC watches L1-I misses;
// STREX watches fills/evictions).
type AccessOutcome struct {
	// L1Miss reports a miss in the relevant private L1.
	L1Miss bool
	// L1Evict reports that the L1 fill evicted a valid block.
	L1Evict bool
	// ServedBy is the level that supplied the block.
	ServedBy Level
	// Cycles is the charge for the event, including the base execution
	// cost for instruction blocks.
	Cycles uint64
}

// Counters is what a run leaves behind: the machine configuration, the
// activity counters the MPKI and power analyses read, and the per-level
// cache aggregates. A Machine counts into its embedded Counters while it
// executes; a Result keeps the copy Snapshot takes when the run ends, so a
// finished result is a plain value that keeps no cache arrays alive.
type Counters struct {
	Cfg Config

	Instructions uint64 // dynamic instructions (blocks × InstrPerBlock)
	L1IMisses    uint64
	L1DMisses    uint64
	L2PMisses    uint64 // deep hierarchy only
	SharedMisses uint64 // LLC misses = memory accesses
	SharedHits   uint64
	NoCHops      uint64
	Invalidation uint64 // coherence invalidations caused by writes
	DataReads    uint64
	DataWrites   uint64

	// L1IStats and L1DStats sum the private caches over all cores;
	// SharedStats is the shared cache's. Snapshot fills them in (a live
	// machine keeps them in its cache objects). The persisted result
	// carries them beside the counters, not inside them.
	L1IStats, L1DStats, SharedStats cache.Stats `json:"-"`
}

// MPKI returns misses per 1000 instructions for a raw miss count.
func (c Counters) MPKI(misses uint64) float64 {
	if c.Instructions == 0 {
		return 0
	}
	return float64(misses) / float64(c.Instructions) * 1000
}

// Machine is the simulated multicore: per-core private caches plus the
// shared NUCA cache and memory, counting its activity into Counters.
type Machine struct {
	Counters

	l1i, l1d []*cache.Cache
	l2p      []*cache.Cache // non-nil in deep hierarchies
	shared   *cache.Cache

	hops [][]uint64 // torus distance core → bank

	// baseBlockCycles caches Cfg.BaseBlockCycles(): the method copies the
	// whole Config and divides floats, which is far too expensive for a
	// per-instruction-event constant.
	baseBlockCycles uint64
}

// NewMachine builds a machine from cfg; it panics on invalid configuration.
func NewMachine(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{Counters: Counters{Cfg: cfg}, shared: cache.New(cfg.Shared), baseBlockCycles: cfg.BaseBlockCycles()}
	for i := 0; i < cfg.Cores; i++ {
		m.l1i = append(m.l1i, cache.New(cfg.L1I))
		m.l1d = append(m.l1d, cache.New(cfg.L1D))
		if cfg.PrivateL2 != nil {
			m.l2p = append(m.l2p, cache.New(*cfg.PrivateL2))
		}
	}
	m.hops = torusHops(cfg.Cores, cfg.SharedBanks)
	return m
}

// torusHops precomputes Manhattan-with-wraparound distances between core i
// and bank j on a square torus large enough for the banks; cores are placed
// modulo the grid.
func torusHops(cores, banks int) [][]uint64 {
	side := 1
	for side*side < banks {
		side++
	}
	pos := func(i int) (int, int) { return i % side, (i / side) % side }
	dist := func(a, b, n int) int {
		d := a - b
		if d < 0 {
			d = -d
		}
		if n-d < d {
			d = n - d
		}
		return d
	}
	h := make([][]uint64, cores)
	for c := 0; c < cores; c++ {
		h[c] = make([]uint64, banks)
		cx, cy := pos(c)
		for b := 0; b < banks; b++ {
			bx, by := pos(b)
			h[c][b] = uint64(dist(cx, bx, side) + dist(cy, by, side))
		}
	}
	return h
}

// sharedLatency returns the NUCA access latency from a core to the bank
// holding addr, counting the traversal hops.
func (m *Machine) sharedLatency(core int, addr uint64) uint64 {
	bank := cache.BankOf(addr, m.Cfg.SharedBanks)
	hops := m.hops[core][bank]
	m.NoCHops += 2 * hops // request + response
	return m.Cfg.SharedHitCycles + hops*m.Cfg.HopCycles
}

// expose scales a miss latency by the exposure factor.
func expose(latency uint64, factor float64) uint64 {
	return uint64(float64(latency)*factor + 0.5)
}

// Exec executes one trace event on the given core and returns the cycle
// charge and outcome. Marker events (Txn/Op boundaries) cost nothing.
func (m *Machine) Exec(core int, ev trace.Event) AccessOutcome {
	switch ev.Kind() {
	case trace.KindInstr:
		return m.execInstr(core, ev.Addr())
	case trace.KindDataRead:
		return m.execData(core, ev.Addr(), false)
	case trace.KindDataWrite:
		return m.execData(core, ev.Addr(), true)
	default:
		return AccessOutcome{ServedBy: ServedNone}
	}
}

func (m *Machine) execInstr(core int, addr uint64) AccessOutcome {
	m.Instructions += trace.InstrPerBlock
	out := AccessOutcome{ServedBy: ServedL1, Cycles: m.baseBlockCycles}
	res := m.l1i[core].Access(addr)
	if res.Hit {
		return out
	}
	out.L1Miss = true
	out.L1Evict = res.Victim
	m.L1IMisses++
	var lat uint64
	if m.l2p != nil {
		if m.l2p[core].Access(addr).Hit {
			out.ServedBy = ServedPrivateL2
			out.Cycles += expose(m.Cfg.PrivateL2Cycles, m.Cfg.InstrMissExposure)
			return out
		}
		m.L2PMisses++
		lat += m.Cfg.PrivateL2Cycles
	}
	lat += m.sharedLatency(core, addr)
	if m.shared.Access(addr).Hit {
		m.SharedHits++
		out.ServedBy = ServedShared
		out.Cycles += expose(lat, m.Cfg.InstrMissExposure)
		return out
	}
	m.SharedMisses++
	out.ServedBy = ServedMem
	out.Cycles += expose(lat+m.Cfg.MemCycles, m.Cfg.InstrMissExposure)
	return out
}

func (m *Machine) execData(core int, addr uint64, write bool) AccessOutcome {
	if write {
		m.DataWrites++
	} else {
		m.DataReads++
	}
	out := AccessOutcome{ServedBy: ServedL1}
	res := m.l1d[core].Access(addr)
	if write {
		// Write-invalidate coherence: remote L1-D (and private L2) copies
		// die. The invalidation itself is off the critical path (store
		// buffer); its cost appears as the remote cores' later misses. The
		// block reaches the shared cache through the ordinary fill path, so
		// no extra shared access is charged here.
		for c := range m.l1d {
			if c != core && m.l1d[c].Invalidate(addr) {
				m.Invalidation++
			}
			if m.l2p != nil && c != core && m.l2p[c].Invalidate(addr) {
				m.Invalidation++
			}
		}
	}
	if res.Hit {
		return out
	}
	out.L1Miss = true
	out.L1Evict = res.Victim
	m.L1DMisses++
	var lat uint64
	if m.l2p != nil {
		if m.l2p[core].Access(addr).Hit {
			out.ServedBy = ServedPrivateL2
			out.Cycles = expose(m.Cfg.PrivateL2Cycles, m.Cfg.OnChipDataExposure)
			return out
		}
		m.L2PMisses++
		lat += m.Cfg.PrivateL2Cycles
	}
	lat += m.sharedLatency(core, addr)
	if m.shared.Access(addr).Hit {
		m.SharedHits++
		out.ServedBy = ServedShared
		out.Cycles = expose(lat, m.Cfg.OnChipDataExposure)
		return out
	}
	m.SharedMisses++
	out.ServedBy = ServedMem
	out.Cycles = expose(lat+m.Cfg.MemCycles, m.Cfg.OffChipDataExposure)
	return out
}

// L1IContains reports whether core's L1-I holds addr without disturbing
// state — SLICC's "which cache already has my instructions" probe.
func (m *Machine) L1IContains(core int, addr uint64) bool {
	return m.l1i[core].Contains(addr)
}

// Snapshot returns a copy of the counters with the per-level cache
// aggregates filled in.
func (m *Machine) Snapshot() Counters {
	c := m.Counters
	c.L1IStats = sumStats(m.l1i)
	c.L1DStats = sumStats(m.l1d)
	c.SharedStats = m.shared.Stats()
	return c
}

// sumStats adds up the statistics of one private level across cores.
func sumStats(caches []*cache.Cache) (sum cache.Stats) {
	for _, c := range caches {
		s := c.Stats()
		sum.Accesses += s.Accesses
		sum.Misses += s.Misses
		sum.Evictions += s.Evictions
	}
	return sum
}
