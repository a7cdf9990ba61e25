package sched

import (
	"fmt"
	"strings"
	"testing"

	"addict/internal/cache"
	"addict/internal/core"
	"addict/internal/sim"
	"addict/internal/trace"
	"addict/internal/workload"
)

// The replay counters below are every mechanism's exact machine state after
// replaying pinSetup's input: the run aggregates, each core's busy cycles,
// every Machine miss/hit/hop counter and the per-level cache statistics.
// The exp goldens print rounded figures; these pin the executor and the six
// mechanisms down to the cycle. They were recorded from the executor that
// still carried a second (window-commitment) dispatch path, on its
// per-event reference path, and must never be regenerated to make a change
// pass: a mismatch means the change altered replay behaviour.

// pinSetup builds a small but structurally rich replay input: enough
// threads to contend for cores, several transaction types, and a real
// migration-point profile for ADDICT.
func pinSetup(t testing.TB) (Config, *trace.Set) {
	t.Helper()
	w := workload.NewTPCC(7, 0.05)
	profSet := workload.GenerateSet(w, 60)
	evalSet := workload.GenerateSet(w, 60)
	cfg := DefaultConfig(sim.Shallow())
	cfg.Profile = core.FindMigrationPoints(profSet, core.ProfileConfig{L1I: cfg.Machine.L1I})
	return cfg, evalSet
}

// replayCounters is the comparable snapshot of one replay's result.
type replayCounters struct {
	makespan, totalLatency, threads          uint64
	migrations, switches, overhead           uint64
	spec                                     sim.SpecStats
	coreActive                               [16]uint64
	instructions, l1iMisses, l1dMisses       uint64
	sharedMisses, sharedHits, nocHops, inval uint64
	l1i, l1d, shared                         cache.Stats
}

func countersOf(t *testing.T, r sim.Result) replayCounters {
	t.Helper()
	c := replayCounters{
		makespan:     r.Makespan,
		totalLatency: r.TotalLatency,
		threads:      uint64(r.Threads),
		migrations:   r.Migrations,
		switches:     r.ContextSwitches,
		overhead:     r.OverheadCycles,
		spec:         r.Spec,
		instructions: r.Machine.Instructions,
		l1iMisses:    r.Machine.L1IMisses,
		l1dMisses:    r.Machine.L1DMisses,
		sharedMisses: r.Machine.SharedMisses,
		sharedHits:   r.Machine.SharedHits,
		nocHops:      r.Machine.NoCHops,
		inval:        r.Machine.Invalidation,
	}
	if len(r.CoreActive) != len(c.coreActive) {
		t.Fatalf("CoreActive has %d cores, want %d", len(r.CoreActive), len(c.coreActive))
	}
	copy(c.coreActive[:], r.CoreActive)
	c.l1i, c.l1d, c.shared = r.Machine.CacheStats()
	return c
}

// String renders c in the table's literal syntax, so a mismatch shows both
// sides field by field.
func (c replayCounters) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "makespan: %d, totalLatency: %d, threads: %d,\n", c.makespan, c.totalLatency, c.threads)
	fmt.Fprintf(&b, "migrations: %d, switches: %d, overhead: %d,\n", c.migrations, c.switches, c.overhead)
	fmt.Fprintf(&b, "spec: sim.SpecStats{CapacityAborts: %d, ConflictAborts: %d, Fallbacks: %d},\n",
		c.spec.CapacityAborts, c.spec.ConflictAborts, c.spec.Fallbacks)
	b.WriteString("coreActive: [16]uint64{")
	for i, a := range c.coreActive {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", a)
	}
	b.WriteString("},\n")
	fmt.Fprintf(&b, "instructions: %d, l1iMisses: %d, l1dMisses: %d,\n", c.instructions, c.l1iMisses, c.l1dMisses)
	fmt.Fprintf(&b, "sharedMisses: %d, sharedHits: %d, nocHops: %d, inval: %d,\n", c.sharedMisses, c.sharedHits, c.nocHops, c.inval)
	for _, s := range []struct {
		name string
		st   cache.Stats
	}{{"l1i", c.l1i}, {"l1d", c.l1d}, {"shared", c.shared}} {
		fmt.Fprintf(&b, "%s: cache.Stats{Accesses: %d, Misses: %d, Evictions: %d},\n", s.name, s.st.Accesses, s.st.Misses, s.st.Evictions)
	}
	return b.String()
}

// pinnedReplay holds the recorded counters, one entry per mechanism family.
var pinnedReplay = []struct {
	mech Mechanism
	want replayCounters
}{
	{Baseline, replayCounters{
		makespan: 2836838, totalLatency: 20724013, threads: 60,
		migrations: 0, switches: 0, overhead: 0,
		spec:         sim.SpecStats{CapacityAborts: 0, ConflictAborts: 0, Fallbacks: 0},
		coreActive:   [16]uint64{1696742, 1063582, 2836838, 2661714, 832258, 757463, 532393, 1414950, 1482878, 1632210, 839313, 630848, 858608, 534755, 2292648, 656813},
		instructions: 15338912, l1iMisses: 668204, l1dMisses: 12487,
		sharedMisses: 9530, sharedHits: 671161, nocHops: 2721606, inval: 992,
		l1i:    cache.Stats{Accesses: 958682, Misses: 668204, Evictions: 660012},
		l1d:    cache.Stats{Accesses: 28923, Misses: 12487, Evictions: 5321},
		shared: cache.Stats{Accesses: 680691, Misses: 9530, Evictions: 0},
	}},
	{STREX, replayCounters{
		makespan: 5709457, totalLatency: 161705002, threads: 60,
		migrations: 0, switches: 6159, overhead: 554310,
		spec:         sim.SpecStats{CapacityAborts: 0, ConflictAborts: 0, Fallbacks: 0},
		coreActive:   [16]uint64{1487031, 5507137, 4041457, 217208, 422668, 406187, 4022204, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		instructions: 15338912, l1iMisses: 411997, l1dMisses: 10958,
		sharedMisses: 9530, sharedHits: 413425, nocHops: 1690106, inval: 423,
		l1i:    cache.Stats{Accesses: 958682, Misses: 411997, Evictions: 408413},
		l1d:    cache.Stats{Accesses: 28923, Misses: 10958, Evictions: 7798},
		shared: cache.Stats{Accesses: 422955, Misses: 9530, Evictions: 0},
	}},
	{SLICC, replayCounters{
		makespan: 1595350, totalLatency: 14962890, threads: 60,
		migrations: 3936, switches: 0, overhead: 354240,
		spec:         sim.SpecStats{CapacityAborts: 0, ConflictAborts: 0, Fallbacks: 0},
		coreActive:   [16]uint64{1142879, 1052224, 1011148, 944191, 807780, 825199, 811764, 790836, 824861, 774100, 763210, 710495, 669020, 723365, 686591, 675469},
		instructions: 15338912, l1iMisses: 249508, l1dMisses: 17195,
		sharedMisses: 9530, sharedHits: 257173, nocHops: 1066978, inval: 4674,
		l1i:    cache.Stats{Accesses: 958682, Misses: 249508, Evictions: 241316},
		l1d:    cache.Stats{Accesses: 28923, Misses: 17195, Evictions: 5917},
		shared: cache.Stats{Accesses: 266703, Misses: 9530, Evictions: 0},
	}},
	{ADDICT, replayCounters{
		makespan: 1502497, totalLatency: 16162822, threads: 60,
		migrations: 2376, switches: 0, overhead: 213840,
		spec:         sim.SpecStats{CapacityAborts: 0, ConflictAborts: 0, Fallbacks: 0},
		coreActive:   [16]uint64{741395, 989896, 828659, 1112336, 523892, 801111, 935148, 782152, 848050, 534196, 710609, 785001, 539047, 688057, 566867, 393518},
		instructions: 15338912, l1iMisses: 170499, l1dMisses: 15163,
		sharedMisses: 9530, sharedHits: 176132, nocHops: 742180, inval: 4640,
		l1i:    cache.Stats{Accesses: 958682, Misses: 170499, Evictions: 162407},
		l1d:    cache.Stats{Accesses: 28923, Misses: 15163, Evictions: 5110},
		shared: cache.Stats{Accesses: 185662, Misses: 9530, Evictions: 0},
	}},
	{HTMSPEC, replayCounters{
		makespan: 2788664, totalLatency: 46132954, threads: 60,
		migrations: 83, switches: 0, overhead: 7470,
		spec:         sim.SpecStats{CapacityAborts: 3, ConflictAborts: 84, Fallbacks: 2},
		coreActive:   [16]uint64{2120761, 2788574, 1980231, 2468529, 1383394, 1403909, 1084146, 1091755, 1032741, 902129, 707135, 688215, 621120, 969332, 594886, 916227},
		instructions: 15338912, l1iMisses: 669866, l1dMisses: 12378,
		sharedMisses: 9530, sharedHits: 672714, nocHops: 2727260, inval: 1098,
		l1i:    cache.Stats{Accesses: 958682, Misses: 669866, Evictions: 661674},
		l1d:    cache.Stats{Accesses: 28923, Misses: 12378, Evictions: 5031},
		shared: cache.Stats{Accesses: 682244, Misses: 9530, Evictions: 0},
	}},
	{CHAIN, replayCounters{
		makespan: 4787206, totalLatency: 39844065, threads: 60,
		migrations: 476, switches: 0, overhead: 42840,
		spec:         sim.SpecStats{CapacityAborts: 0, ConflictAborts: 0, Fallbacks: 0},
		coreActive:   [16]uint64{1489180, 2211973, 162475, 74877, 3424645, 3358565, 3224496, 124979, 726100, 478670, 995115, 3434255, 108838, 152344, 17588, 386440},
		instructions: 15338912, l1iMisses: 648584, l1dMisses: 12319,
		sharedMisses: 9530, sharedHits: 651373, nocHops: 2643814, inval: 2261,
		l1i:    cache.Stats{Accesses: 958682, Misses: 648584, Evictions: 641218},
		l1d:    cache.Stats{Accesses: 28923, Misses: 12319, Evictions: 5805},
		shared: cache.Stats{Accesses: 660903, Misses: 9530, Evictions: 0},
	}},
}

// TestPinnedReplayCounters replays every mechanism on pinSetup's input and
// requires each recorded counter to be reproduced exactly.
func TestPinnedReplayCounters(t *testing.T) {
	cfg, evalSet := pinSetup(t)
	if len(pinnedReplay) != len(AllMechanisms) {
		t.Fatalf("pinned %d mechanisms, AllMechanisms has %d", len(pinnedReplay), len(AllMechanisms))
	}
	for _, p := range pinnedReplay {
		t.Run(string(p.mech), func(t *testing.T) {
			res, err := Run(p.mech, evalSet, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := countersOf(t, res); got != p.want {
				t.Errorf("replay counters changed:\ngot\n%s\nwant\n%s", got, p.want)
			}
		})
	}
}
