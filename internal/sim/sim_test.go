package sim

import (
	"testing"

	"addict/internal/trace"
)

func TestConfigPresets(t *testing.T) {
	if err := Shallow().Validate(); err != nil {
		t.Errorf("Shallow invalid: %v", err)
	}
	d := Deep()
	if err := d.Validate(); err != nil {
		t.Errorf("Deep invalid: %v", err)
	}
	if d.PrivateL2 == nil || d.Shared.Name != "L3" {
		t.Error("Deep hierarchy not configured")
	}
	if Shallow().BaseBlockCycles() != 8 { // 16 instr / 2 IPC
		t.Errorf("BaseBlockCycles = %d, want 8", Shallow().BaseBlockCycles())
	}
	bad := Shallow()
	bad.Cores = 0
	if bad.Validate() == nil {
		t.Error("zero-core config validated")
	}
}

func TestTorusHops(t *testing.T) {
	h := torusHops(16, 16)
	for c := 0; c < 16; c++ {
		if h[c][c] != 0 {
			t.Errorf("hops[%d][%d] = %d, want 0", c, c, h[c][c])
		}
		for b := 0; b < 16; b++ {
			if h[c][b] > 4 {
				t.Errorf("hops[%d][%d] = %d, exceeds 4x4 torus diameter", c, b, h[c][b])
			}
			if h[c][b] != h[b][c] {
				t.Errorf("hops not symmetric at %d,%d", c, b)
			}
		}
	}
}

func TestMachineInstrTiming(t *testing.T) {
	m := NewMachine(Shallow())
	base := m.Cfg.BaseBlockCycles()

	out := m.Exec(0, trace.MemEvent(trace.KindInstr, 0x400000))
	if !out.L1Miss || out.ServedBy != ServedMem {
		t.Errorf("first fetch: %+v, want L1 miss served by memory", out)
	}
	if out.Cycles <= base+m.Cfg.MemCycles/2 {
		t.Errorf("memory-served fetch cost %d cycles, too cheap", out.Cycles)
	}
	out = m.Exec(0, trace.MemEvent(trace.KindInstr, 0x400000))
	if out.L1Miss || out.Cycles != base {
		t.Errorf("hit: %+v, want base %d cycles", out, base)
	}
	// Another core fetching the same block: L1 miss, shared hit.
	out = m.Exec(1, trace.MemEvent(trace.KindInstr, 0x400000))
	if !out.L1Miss || out.ServedBy != ServedShared {
		t.Errorf("cross-core fetch: %+v, want shared hit", out)
	}
	if m.Instructions != 3*trace.InstrPerBlock {
		t.Errorf("Instructions = %d", m.Instructions)
	}
	if m.L1IMisses != 2 || m.SharedMisses != 1 || m.SharedHits != 1 {
		t.Errorf("miss counters: L1I=%d shared=%d/%d", m.L1IMisses, m.SharedMisses, m.SharedHits)
	}
}

func TestMachineDataCoherence(t *testing.T) {
	m := NewMachine(Shallow())
	addr := uint64(0x2_0000_0000)
	m.Exec(0, trace.MemEvent(trace.KindDataRead, addr))
	m.Exec(1, trace.MemEvent(trace.KindDataRead, addr))
	// Core 2 writes: both copies invalidated.
	m.Exec(2, trace.MemEvent(trace.KindDataWrite, addr))
	if m.Invalidation != 2 {
		t.Errorf("invalidations = %d, want 2", m.Invalidation)
	}
	// Core 0 re-reads: must miss L1 again.
	out := m.Exec(0, trace.MemEvent(trace.KindDataRead, addr))
	if !out.L1Miss {
		t.Error("read after remote write hit a stale L1 copy")
	}
	if out.ServedBy != ServedShared {
		t.Errorf("served by %v, want shared", out.ServedBy)
	}
}

func TestMachineDeepHierarchy(t *testing.T) {
	m := NewMachine(Deep())
	addr := uint64(0x400000)
	m.Exec(0, trace.MemEvent(trace.KindInstr, addr))
	// Evict from tiny L1 by filling its set, keeping the private L2 copy.
	for i := 1; i <= 8; i++ {
		conflict := addr + uint64(i)*uint64(m.Cfg.L1I.SizeBytes/m.Cfg.L1I.Ways)
		m.Exec(0, trace.MemEvent(trace.KindInstr, conflict))
	}
	out := m.Exec(0, trace.MemEvent(trace.KindInstr, addr))
	if !out.L1Miss || out.ServedBy != ServedPrivateL2 {
		t.Errorf("refetch: %+v, want private-L2 hit", out)
	}
}

func TestMarkersAreFree(t *testing.T) {
	m := NewMachine(Shallow())
	out := m.Exec(0, trace.MarkerEvent(trace.KindTxnBegin, 0, 0))
	if out.Cycles != 0 || out.ServedBy != ServedNone {
		t.Errorf("marker outcome: %+v", out)
	}
	if m.Instructions != 0 {
		t.Error("marker counted as instruction")
	}
}

func TestMPKI(t *testing.T) {
	m := NewMachine(Shallow())
	if m.MPKI(10) != 0 {
		t.Error("MPKI with no instructions should be 0")
	}
	m.Instructions = 2000
	if got := m.MPKI(10); got != 5 {
		t.Errorf("MPKI = %v, want 5", got)
	}
}

// runAll is a trivial mechanism: round-robin placement, always run.
type runAll struct{ next int }

func (r *runAll) Place(t *Thread) int {
	c := r.next
	r.next = (r.next + 1) % 4
	return c
}
func (r *runAll) Act(*Thread, trace.Event) Action             { return Run }
func (r *runAll) Observe(*Thread, trace.Event, AccessOutcome) {}

func mkTrace(id int, blocks int) *trace.Trace {
	b := trace.NewBuffer()
	b.TxnBegin(trace.TxnType(id%3), "t")
	b.OpBegin(trace.OpIndexProbe)
	for i := 0; i < blocks; i++ {
		b.Instr(uint64(0x400000 + (i%64)*trace.BlockSize))
		if i%4 == 0 {
			b.Data(uint64(0x1_0000_0000+(id*1000+i)*trace.BlockSize), i%8 == 0)
		}
	}
	b.OpEnd(trace.OpIndexProbe)
	b.TxnEnd()
	return b.Take()[0]
}

func smallConfig() Config {
	c := Shallow()
	c.Cores = 4
	// Shrink the shared cache so tests exercise misses: 1MB total.
	c.Shared.SizeBytes = 1 << 20
	return c
}

func TestExecutorRunsAllEvents(t *testing.T) {
	var traces []*trace.Trace
	for i := 0; i < 10; i++ {
		traces = append(traces, mkTrace(i, 100))
	}
	m := NewMachine(smallConfig())
	ex := NewExecutor(m, &runAll{}, traces)
	res := ex.Run()
	if res.Threads != 10 {
		t.Errorf("Threads = %d", res.Threads)
	}
	if res.Makespan == 0 || res.TotalLatency == 0 {
		t.Error("no time elapsed")
	}
	if m.Instructions != 10*100*trace.InstrPerBlock {
		t.Errorf("Instructions = %d, want %d", m.Instructions, 10*100*trace.InstrPerBlock)
	}
	if res.Migrations != 0 || res.ContextSwitches != 0 {
		t.Error("trivial scheduler migrated")
	}
	// 10 threads round-robin on 4 cores: queues force waiting, so the
	// makespan exceeds any single thread's latency.
	var maxLat uint64
	for _, th := range ex.Threads() {
		if th.Latency() > maxLat {
			maxLat = th.Latency()
		}
	}
	if res.Makespan < maxLat {
		t.Errorf("makespan %d < max latency %d", res.Makespan, maxLat)
	}
}

func TestExecutorDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		var traces []*trace.Trace
		for i := 0; i < 8; i++ {
			traces = append(traces, mkTrace(i, 50+i*10))
		}
		ex := NewExecutor(NewMachine(smallConfig()), &runAll{}, traces)
		res := ex.Run()
		return res.Makespan, res.TotalLatency
	}
	m1, l1 := run()
	m2, l2 := run()
	if m1 != m2 || l1 != l2 {
		t.Errorf("nondeterministic: (%d,%d) vs (%d,%d)", m1, l1, m2, l2)
	}
}

// migrator bounces every thread to core (ID+1) mod N at each op boundary.
type migrator struct{ cores int }

func (mg *migrator) Place(t *Thread) int { return t.ID % mg.cores }
func (mg *migrator) Act(t *Thread, ev trace.Event) Action {
	if ev.Kind() == trace.KindOpBegin {
		return MigrateTo((t.Core + 1) % mg.cores)
	}
	return Run
}
func (mg *migrator) Observe(*Thread, trace.Event, AccessOutcome) {}

func TestExecutorMigration(t *testing.T) {
	traces := []*trace.Trace{mkTrace(0, 40), mkTrace(1, 40)}
	m := NewMachine(smallConfig())
	ex := NewExecutor(m, &migrator{cores: 4}, traces)
	res := ex.Run()
	if res.Migrations != 2 { // one op boundary per trace
		t.Errorf("Migrations = %d, want 2", res.Migrations)
	}
	if res.OverheadCycles != 2*m.Cfg.MigrationCycles {
		t.Errorf("OverheadCycles = %d", res.OverheadCycles)
	}
	if res.SwitchesPerKInstr() <= 0 {
		t.Error("SwitchesPerKInstr = 0 despite migrations")
	}
}

// yielder switches threads every 10 instruction events (STREX-style).
type yielder struct{ counts map[int]int }

func (y *yielder) Place(*Thread) int { return 0 } // everyone on core 0
func (y *yielder) Act(t *Thread, ev trace.Event) Action {
	if ev.Kind() == trace.KindInstr {
		y.counts[t.ID]++
		if y.counts[t.ID]%10 == 0 {
			return Yield
		}
	}
	return Run
}
func (y *yielder) Observe(*Thread, trace.Event, AccessOutcome) {}

func TestExecutorYield(t *testing.T) {
	traces := []*trace.Trace{mkTrace(0, 35), mkTrace(1, 35), mkTrace(2, 35)}
	m := NewMachine(smallConfig())
	ex := NewExecutor(m, &yielder{counts: map[int]int{}}, traces)
	res := ex.Run()
	if res.ContextSwitches == 0 {
		t.Fatal("no context switches")
	}
	if res.Migrations != 0 {
		t.Error("yield produced migrations")
	}
	// All events ran exactly once despite the multiplexing.
	if m.Instructions != 3*35*trace.InstrPerBlock {
		t.Errorf("Instructions = %d", m.Instructions)
	}
	// Time-multiplexing on one core: every thread's latency approaches the
	// makespan (the paper's STREX latency effect).
	for _, th := range ex.Threads() {
		if th.Latency() < res.Makespan/3 {
			t.Errorf("thread %d latency %d too small vs makespan %d", th.ID, th.Latency(), res.Makespan)
		}
	}
}

func TestYieldOnEmptyQueueKeepsRunning(t *testing.T) {
	traces := []*trace.Trace{mkTrace(0, 25)}
	m := NewMachine(smallConfig())
	ex := NewExecutor(m, &yielder{counts: map[int]int{}}, traces)
	res := ex.Run() // would hang if yield-with-empty-queue didn't retry
	if res.Threads != 1 || m.Instructions == 0 {
		t.Error("single-thread yield run broken")
	}
}

func TestResultHelpers(t *testing.T) {
	var r Result
	if r.AvgLatency() != 0 || r.SwitchesPerKInstr() != 0 || r.OverheadShare() != 0 {
		t.Error("zero-state helpers nonzero")
	}
	r.Threads = 2
	r.TotalLatency = 10
	if r.AvgLatency() != 5 {
		t.Errorf("AvgLatency = %v", r.AvgLatency())
	}
	r.CoreActive = []uint64{50, 50}
	r.OverheadCycles = 10
	if r.OverheadShare() != 0.1 {
		t.Errorf("OverheadShare = %v", r.OverheadShare())
	}
}
