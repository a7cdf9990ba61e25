package sched

import (
	"addict/internal/sim"
	"addict/internal/trace"
)

// SLICC (Atta et al., MICRO 2012) spreads a transaction's computation over
// several cores to aggregate L1-I capacity: when a thread's fetch stream
// starts missing heavily (its working segment changed), SLICC migrates it
// to the core whose instruction cache already holds the blocks it needs —
// or to an idle core where the segment will be faulted in and then reused
// by the following same-type transactions. It is hardware-only: migration
// decisions come from miss counters and cache-residency probes, with no
// knowledge of operation boundaries, which is why it migrates more often
// than ADDICT and cannot avoid migrating inside critical sections
// (Section 5.2).
type sliccHooks struct {
	cores int
	ex    *sim.Executor
	// st is per-thread state, indexed by thread ID (preallocated in bind —
	// the replay loop must not allocate).
	st []sliccState
	// rrPreferred rotates the idle-core preference for newly faulted
	// segments. It is global: every thread agrees on where the next fresh
	// segment goes, so followers find the leader's segment homes.
	rrPreferred int
	// segSeen/segBuf are reusable scratch for upcomingBlocks, so the
	// migration-decision path allocates nothing in steady state.
	segSeen map[uint64]struct{}
	segBuf  []uint64
}

type sliccState struct {
	fetches    int // fetches in current window
	misses     int // misses in current window
	sinceMove  int
	migrations int
}

// SLICC's miss-burst detector: a migration triggers when the last
// SLICCWindow instruction fetches contain at least SLICCMissThreshold
// misses, and at least SLICCCooldown fetches have passed since the
// thread's previous migration.
const (
	SLICCWindow        = 32
	SLICCMissThreshold = 16
	SLICCCooldown      = 128
)

func newSliccHooks(cores int) *sliccHooks {
	return &sliccHooks{
		cores:   cores,
		segSeen: make(map[uint64]struct{}, segmentLookahead),
		segBuf:  make([]uint64, 0, segmentLookahead),
	}
}

func (s *sliccHooks) bind(ex *sim.Executor) {
	s.ex = ex
	s.st = make([]sliccState, len(ex.Threads()))
}

// Place implements sim.Hooks: a batch's threads all start on the same core
// and follow the leader through the segment homes it faults in — SLICC's
// self-assembling pipeline ("the initial/leader thread misses the
// instructions ... and the rest of the threads reuse the instructions
// already brought into cache(s) by the initial thread", Section 5.2).
func (s *sliccHooks) Place(t *sim.Thread) int { return t.Batch % s.cores }

func (s *sliccHooks) state(id int) *sliccState { return &s.st[id] }

// segmentLookahead is the number of distinct upcoming blocks scored when
// choosing a migration target — the replay-time stand-in for SLICC's
// per-core cache signatures.
const segmentLookahead = 32

// Act implements sim.Hooks: on a miss burst, chase the instructions —
// migrate to the core whose L1-I holds the most of the upcoming segment.
func (s *sliccHooks) Act(t *sim.Thread, ev trace.Event) sim.Action {
	if ev.Kind() != trace.KindInstr {
		return sim.Run
	}
	st := s.state(t.ID)
	st.sinceMove++
	if st.fetches < SLICCWindow || st.misses < SLICCMissThreshold || st.sinceMove < SLICCCooldown {
		return sim.Run
	}
	dest := s.pickCore(t)
	st.fetches, st.misses = 0, 0
	if dest == t.Core {
		return sim.Run
	}
	st.sinceMove = 0
	st.migrations++
	return sim.MigrateTo(dest)
}

// upcomingBlocks collects the next n distinct instruction blocks of the
// thread's stream into the reusable segment scratch (the returned slice is
// valid until the next call).
func (s *sliccHooks) upcomingBlocks(t *sim.Thread, n int) []uint64 {
	events := t.Trace.Events
	clear(s.segSeen)
	seen := s.segSeen
	out := s.segBuf[:0]
	for i := t.Pos(); i < len(events) && len(out) < n; i++ {
		if events[i].Kind() != trace.KindInstr {
			continue
		}
		a := events[i].Addr()
		if _, dup := seen[a]; dup {
			continue
		}
		seen[a] = struct{}{}
		out = append(out, a)
	}
	return out
}

// pickCore scores every core's L1-I against the upcoming segment and
// chooses the best holder; with no meaningful holder, an idle core becomes
// the segment's new home.
func (s *sliccHooks) pickCore(t *sim.Thread) int {
	m := s.ex.M
	segment := s.upcomingBlocks(t, segmentLookahead)
	if len(segment) == 0 {
		return t.Core
	}
	// Score every core's L1-I against the segment; the current core's
	// score is the bar to beat. SLICC strongly prefers free cores — a
	// one-thread-per-core mechanism queueing behind a busy holder wastes
	// more than refetching.
	curScore := 0
	bestFree, bestFreeScore := -1, -1
	bestBusy, bestBusyScore := -1, -1
	for c := 0; c < s.cores; c++ {
		score := 0
		for _, a := range segment {
			if m.L1IContains(c, a) {
				score++
			}
		}
		switch {
		case c == t.Core:
			curScore = score
		case s.ex.CoreFree(c):
			if score > bestFreeScore {
				bestFree, bestFreeScore = c, score
			}
		default:
			if score > bestBusyScore {
				bestBusy, bestBusyScore = c, score
			}
		}
	}
	if bestFree >= 0 && bestFreeScore > curScore && bestFreeScore > len(segment)/4 {
		return bestFree
	}
	if bestBusy >= 0 && bestBusyScore > 2*curScore && bestBusyScore > len(segment)/2 &&
		s.ex.QueueLen(bestBusy) == 0 {
		// A decisively better busy holder with an empty queue: short wait,
		// big reuse.
		return bestBusy
	}
	if curScore >= len(segment)/4 {
		return t.Core // already reasonably at home
	}
	// Nobody holds the segment: fault it into an idle core (the global
	// rotating preference gives fresh segments stable homes).
	for i := 0; i < s.cores; i++ {
		c := (s.rrPreferred + i) % s.cores
		if c != t.Core && s.ex.CoreFree(c) {
			s.rrPreferred = (c + 1) % s.cores
			return c
		}
	}
	return t.Core
}

// Observe implements sim.Hooks: maintain the sliding miss window.
func (s *sliccHooks) Observe(t *sim.Thread, ev trace.Event, out sim.AccessOutcome) {
	if ev.Kind() != trace.KindInstr {
		return
	}
	st := s.state(t.ID)
	st.fetches++
	if out.L1Miss {
		st.misses++
	}
	if st.fetches > SLICCWindow {
		// Restart the window (block-granular approximation of a sliding
		// window; SLICC's hardware uses saturating counters).
		st.fetches = 0
		st.misses = 0
	}
}
