// Package sched implements the transaction scheduling mechanism families
// the reproduction evaluates, all driving the same trace-replay executor
// on the same simulated machine.
//
// # The paper's four (Section 4.1)
//
// Baseline, STREX, SLICC, and ADDICT are the paper's evaluation axis,
// mirroring "we implement all four scheduling mechanisms on the Zesto
// simulator" — the series compared in Figures 5, 6, 8b, and 9
// (Mechanisms, in the paper's presentation order):
//
//   - Baseline — traditional scheduling: each transaction starts and
//     finishes on one core; cores pull transactions in arrival order.
//   - STREX (Atta et al., ISCA'13) — same-core time multiplexing: a batch
//     of same-type transactions shares one core, switching on L1-I
//     eviction pressure so the batch reuses the resident code.
//   - SLICC (Atta et al., MICRO'12) — hardware-only computation
//     spreading: a miss-burst detector migrates a thread when its fetches
//     leave the cached segment, spreading a transaction's code footprint
//     over several L1-I caches.
//   - ADDICT (this paper) — software-guided migration: Algorithm 1's
//     profiling pass picks migration points at operation granularity,
//     Algorithm 2 assigns each point a core, and the replay migrates
//     threads at exactly those points.
//
// # Related-work extensions
//
// HTMSPEC and CHAIN extend the axis with two mechanism families from
// later related work (AllMechanisms = the paper's four plus these two;
// the figure experiments keep the original four):
//
//   - HTMSPEC (htmspec.go) — bounded HTM-style speculation in the style
//     of limited read/write-set proposals needing no ISA or coherence
//     changes (arXiv 2510.15888). Each operation window runs as a
//     speculative region over per-thread bounded read/write sets;
//     validation at the operation's end aborts on set overflow (capacity)
//     or on a line another thread wrote since the region began
//     (conflict), and after HTMSPECMaxAborts aborts the thread falls back
//     to the non-speculative Baseline path. Abort counters surface as
//     sim.Result.Spec.
//   - CHAIN (chain.go) — chaining-aware scheduling informed by the
//     RISC-V instruction-chaining extension (arXiv 2503.20609): a
//     transaction's operation invocations are chain links committed as a
//     unit on the core that owns the link's code, with short links and
//     congested homes fusing in place. It is ADDICT's migration idea
//     without the profiling pass: operation markers alone pick the
//     migration points.
//
// Mechanism names resolve through ParseMechanism (case-insensitive, with
// a nearest-name suggestion on a typo); DESIGN.md §12 is the mechanism
// reference manual (state machines, abort/handoff conditions, and the
// frozen constants each family keeps next to its hooks).
//
// Every family is a per-event scheduler: the executor asks Act before each
// event and reports its outcome through Observe — one dispatch path, as in
// the paper's simulator. The steady-state replay loop allocates nothing
// for any family (bench.SteadyStateAllocsPerEvent), and
// TestPinnedReplayCounters pins each family's exact machine counters.
package sched
