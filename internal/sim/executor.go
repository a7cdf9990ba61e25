package sim

import (
	"fmt"

	"addict/internal/trace"
)

// The executor is a discrete-event engine: threads (one per transaction
// trace) execute events on cores in global time order, with per-core FIFO
// wait queues. Scheduling mechanisms steer it through the Hooks interface —
// the same structure as the paper's evaluation, where Baseline, STREX,
// SLICC, and ADDICT are all "implemented on the Zesto simulator"
// (Section 4.1).
//
// Every event is dispatched the same way: one Act call before it, one
// Observe call after it. The engine is written for zero steady-state
// allocation around that dispatch: all per-thread and per-core state is
// preallocated in NewExecutor, the ready set is a (time, ID)-sorted ring of
// thread pointers bounded by the core count (see readyRing), and a running
// thread keeps executing without touching the ring while it remains
// earliest in that order. All of this is observationally equivalent to
// popping one event at a time from a container/heap.

// ActionKind is a scheduler directive for the next event of a thread.
type ActionKind uint8

// Scheduler directives.
const (
	// ActRun executes the event on the thread's current core.
	ActRun ActionKind = iota
	// ActMigrate moves the thread to core Dest (paying the migration cost),
	// then executes the event there.
	ActMigrate
	// ActYield performs a same-core context switch: the thread goes to the
	// back of its core's queue and the next queued thread resumes. The
	// event is retried when the thread runs again (STREX's
	// time-multiplexing).
	ActYield
)

// Action is the scheduler's decision for one event.
type Action struct {
	Kind ActionKind
	// Dest is the target core for ActMigrate.
	Dest int
}

// Run is the no-op action.
var Run = Action{Kind: ActRun}

// MigrateTo builds a migration action.
func MigrateTo(core int) Action { return Action{Kind: ActMigrate, Dest: core} }

// Yield is the STREX-style same-core switch action.
var Yield = Action{Kind: ActYield}

// Hooks is the scheduling-mechanism interface.
type Hooks interface {
	// Place returns the core whose queue thread t initially joins.
	Place(t *Thread) int
	// Act decides what happens before executing event ev of t (which
	// currently occupies t.Core). Migrating to the current core is
	// equivalent to ActRun.
	Act(t *Thread, ev trace.Event) Action
	// Observe reports the outcome after an event executes.
	Observe(t *Thread, ev trace.Event, out AccessOutcome)
}

// Thread is one transaction's replay cursor.
type Thread struct {
	ID    int
	Trace *trace.Trace
	// Core is the core the thread occupies (or waits at).
	Core int
	// Batch is the scheduler-assigned batch number (same-type batching).
	Batch int

	pos       int
	time      uint64
	started   bool
	startTime uint64
	endTime   uint64
	state     threadState
	// pendingCost is charged when the thread next acquires a core
	// (migration or context-switch latency).
	pendingCost uint64
	// forceRun executes the next event without consulting the scheduler —
	// set after a migration so each event gets exactly one migration
	// decision (re-asking after arrival could ping-pong forever).
	forceRun bool
}

type threadState uint8

const (
	stateQueued threadState = iota
	stateRunning
	stateDone
)

// Pos returns the index of the next event to execute.
func (t *Thread) Pos() int { return t.pos }

// Time returns the thread's virtual clock.
func (t *Thread) Time() uint64 { return t.time }

// Latency returns the thread's completion latency (first execution →
// completion); valid once done.
func (t *Thread) Latency() uint64 { return t.endTime - t.startTime }

// Result aggregates a completed run.
type Result struct {
	// Machine is the run's counters, copied from the machine it executed
	// on when the run ended.
	Machine Counters
	// Makespan is the cycle at which the last thread completed — the
	// paper's "cycles to complete 1000 traces".
	Makespan uint64
	// TotalLatency is the sum of per-transaction latencies.
	TotalLatency uint64
	// Threads is the number of transactions executed.
	Threads int
	// Migrations counts cross-core thread moves; ContextSwitches counts
	// same-core switches (Figure 9's overhead metric counts both).
	Migrations      uint64
	ContextSwitches uint64
	// OverheadCycles is the total cycles spent in migration/switch costs.
	OverheadCycles uint64
	// CoreActive[c] is the busy-cycle count of core c (power model input).
	CoreActive []uint64
	// Spec carries the speculation counters of HTM-style mechanisms
	// (all-zero for non-speculative ones).
	Spec SpecStats
}

// SpecStats aggregates the abort/fallback counters of a speculative
// (HTM-style) mechanism run.
type SpecStats struct {
	// CapacityAborts counts regions aborted because a read or write set
	// overflowed its bound.
	CapacityAborts uint64
	// ConflictAborts counts regions aborted on a conflicting line (written
	// by another thread since the region began).
	ConflictAborts uint64
	// Fallbacks counts threads that exhausted their abort budget and fell
	// back to non-speculative execution for the rest of the run.
	Fallbacks uint64
}

// SpecReporter is implemented by hooks of speculative mechanisms; the
// executor collects the counters into Result.Spec at the end of a run.
type SpecReporter interface {
	SpecStats() SpecStats
}

// AvgLatency returns the mean transaction latency.
func (r Result) AvgLatency() float64 {
	if r.Threads == 0 {
		return 0
	}
	return float64(r.TotalLatency) / float64(r.Threads)
}

// SwitchesPerKInstr returns (migrations+context switches) per 1000
// instructions — Figure 9's left plot.
func (r Result) SwitchesPerKInstr() float64 {
	if r.Machine.Instructions == 0 {
		return 0
	}
	return float64(r.Migrations+r.ContextSwitches) / float64(r.Machine.Instructions) * 1000
}

// OverheadShare returns the fraction of total core-busy cycles spent on
// migration/switch overhead — Figure 9's right plot.
func (r Result) OverheadShare() float64 {
	var busy uint64
	for _, c := range r.CoreActive {
		busy += c
	}
	if busy == 0 {
		return 0
	}
	return float64(r.OverheadCycles) / float64(busy)
}

// coreState tracks one core: its occupant and a FIFO wait queue stored as
// a ring over a preallocated slice (head advances on promote; the live
// region is queue[head:]). The queue never allocates after NewExecutor —
// its capacity is the thread count, the upper bound on waiters anywhere.
type coreState struct {
	occupant int // thread ID, -1 when free
	queue    []int
	head     int
	freeAt   uint64
	active   uint64
}

// qlen is the number of waiting threads.
func (c *coreState) qlen() int { return len(c.queue) - c.head }

// compact reclaims the dead head region so an append stays in capacity.
func (c *coreState) compact() {
	n := copy(c.queue, c.queue[c.head:])
	c.queue = c.queue[:n]
	c.head = 0
}

// push appends a waiter.
func (c *coreState) push(id int) {
	if len(c.queue) == cap(c.queue) && c.head > 0 {
		c.compact()
	}
	c.queue = append(c.queue, id)
}

// popFront removes and returns the head waiter.
func (c *coreState) popFront() int {
	id := c.queue[c.head]
	c.head++
	if c.head == len(c.queue) {
		c.queue = c.queue[:0]
		c.head = 0
	}
	return id
}

// Executor drives a set of threads over a machine under a scheduling
// mechanism.
type Executor struct {
	M     *Machine
	hooks Hooks

	// AdmitLimit bounds the number of unfinished admitted threads (0 = no
	// bound). ADDICT and SLICC admit one batch at a time ("the batch size
	// is equal to the number of available cores ... to not increase
	// average transaction latency drastically", Section 3.2.1); Baseline
	// and STREX bound concurrency through their core queues instead.
	AdmitLimit int

	threads []*Thread
	cores   []coreState
	ready   readyRing

	nextAdmit int
	live      int

	migrations, switches, overhead uint64
}

// NewExecutor prepares a run of the given traces. All per-thread and
// per-core state is allocated here; the replay loop itself is
// allocation-free.
func NewExecutor(m *Machine, hooks Hooks, traces []*trace.Trace) *Executor {
	ex := &Executor{M: m, hooks: hooks}
	ex.cores = make([]coreState, m.Cfg.Cores)
	for i := range ex.cores {
		ex.cores[i].occupant = -1
		ex.cores[i].queue = make([]int, 0, len(traces))
	}
	store := make([]Thread, len(traces))
	ex.threads = make([]*Thread, len(traces))
	for i, tr := range traces {
		store[i] = Thread{ID: i, Trace: tr, Core: -1}
		ex.threads[i] = &store[i]
	}
	ex.ready = newReadyRing(m.Cfg.Cores)
	return ex
}

// Threads exposes the run's threads (schedulers use it for batching).
func (ex *Executor) Threads() []*Thread { return ex.threads }

// Run executes all threads to completion and returns the result.
func (ex *Executor) Run() Result {
	// Admission: threads join their placement core's queue in thread order
	// (which schedulers control by batching), up to AdmitLimit in flight.
	ex.admit(0)
	for ex.ready.n > 0 {
		t := ex.ready.pop()
		for t != nil {
			t = ex.runThread(t)
		}
	}
	res := Result{
		Machine:         ex.M.Snapshot(),
		Threads:         len(ex.threads),
		Migrations:      ex.migrations,
		ContextSwitches: ex.switches,
		OverheadCycles:  ex.overhead,
	}
	for _, t := range ex.threads {
		if t.state != stateDone {
			panic(fmt.Sprintf("sim: thread %d stuck at event %d/%d (deadlocked queue?)",
				t.ID, t.pos, len(t.Trace.Events)))
		}
		if t.endTime > res.Makespan {
			res.Makespan = t.endTime
		}
		res.TotalLatency += t.Latency()
	}
	res.CoreActive = make([]uint64, len(ex.cores))
	for i := range ex.cores {
		res.CoreActive[i] = ex.cores[i].active
	}
	if r, ok := ex.hooks.(SpecReporter); ok {
		res.Spec = r.SpecStats()
	}
	return res
}

// runThread executes t's events until the thread finishes, blocks
// (migration or yield), or another ready thread becomes earlier in the
// (time, ID) order. In the last case t swaps places with the ready set's
// earliest thread, which is returned; while t stays earliest the ready set
// is only read. Each loop iteration corresponds exactly to one pop of the
// one-event-at-a-time engine, so the event interleaving (and therefore
// every simulated counter) is identical.
func (ex *Executor) runThread(t *Thread) *Thread {
	events := t.Trace.Events
	for {
		if t.pos >= len(events) {
			ex.finish(t)
			return nil
		}
		if t.forceRun {
			t.forceRun = false
			if ex.execOne(t, events[t.pos]) {
				return ex.ready.swapHead(t)
			}
			continue
		}
		ev := events[t.pos]
		act := ex.hooks.Act(t, ev)
		switch act.Kind {
		case ActMigrate:
			if act.Dest != t.Core {
				ex.migrate(t, act.Dest)
				return nil
			}
			fallthrough // migrating to the current core is just running
		case ActRun:
			if ex.execOne(t, ev) {
				return ex.ready.swapHead(t)
			}
		case ActYield:
			if ex.yield(t) {
				return nil
			}
			// No same-batch waiter: the thread keeps the core and the
			// scheduler is asked again (it has just reset its monitor).
		}
	}
}

// execOne executes one event, reports its outcome to the mechanism, and
// reports whether t lost its earliest position.
func (ex *Executor) execOne(t *Thread, ev trace.Event) (preempted bool) {
	out := ex.M.Exec(t.Core, ev)
	if !t.started && ev.IsMemory() {
		t.started = true
		t.startTime = t.time
	}
	t.time += out.Cycles
	ex.cores[t.Core].active += out.Cycles
	t.pos++
	ex.hooks.Observe(t, ev, out)
	return ex.ready.n > 0 && before(ex.ready.s[ex.ready.head], t)
}

// admit places waiting threads at time now until the in-flight bound is
// reached. Threads enter the ready set no earlier than the thread just
// popped from it, so ready-set pops never go back in time, and the time of
// the finishing thread that calls admit is the latest event time seen: a
// late admission joins "now", not the past.
func (ex *Executor) admit(now uint64) {
	for ex.nextAdmit < len(ex.threads) && (ex.AdmitLimit == 0 || ex.live < ex.AdmitLimit) {
		t := ex.threads[ex.nextAdmit]
		ex.nextAdmit++
		ex.live++
		dest := ex.hooks.Place(t)
		ex.enqueue(t, dest, now)
	}
}

// finish completes a thread, promotes the next waiter on its core, and
// admits a replacement.
func (ex *Executor) finish(t *Thread) {
	t.state = stateDone
	t.endTime = t.time
	if !t.started { // empty trace: zero-length latency
		t.startTime = t.time
	}
	ex.releaseCore(t.Core, t.time)
	t.Core = -1
	ex.live--
	ex.admit(t.time)
}

// migrate moves t to dest: the current core is released and t joins dest.
func (ex *Executor) migrate(t *Thread, dest int) {
	ex.migrations++
	ex.overhead += ex.M.Cfg.MigrationCycles
	from := t.Core
	ex.releaseCore(from, t.time)
	t.pendingCost = ex.M.Cfg.MigrationCycles
	t.forceRun = true
	ex.enqueue(t, dest, t.time)
}

// yield rotates t behind the waiters of its own batch on the same core and
// promotes the queue head — STREX's intra-batch time multiplexing. A thread
// with no same-batch peers waiting keeps running (nothing to reuse its
// cache contents), without a switch charged; yield then returns false and
// the thread keeps the core.
func (ex *Executor) yield(t *Thread) bool {
	c := &ex.cores[t.Core]
	last := -1
	for i := c.head; i < len(c.queue); i++ {
		if ex.threads[c.queue[i]].Batch == t.Batch {
			last = i
		}
	}
	if last == -1 {
		return false
	}
	ex.switches++
	ex.overhead += ex.M.Cfg.ContextSwitchCycles
	t.state = stateQueued
	t.pendingCost = ex.M.Cfg.ContextSwitchCycles
	if len(c.queue) == cap(c.queue) && c.head > 0 {
		last -= c.head
		c.compact()
	}
	c.queue = append(c.queue, 0)
	copy(c.queue[last+2:], c.queue[last+1:])
	c.queue[last+1] = t.ID
	c.occupant = -1
	ex.promote(t.Core, t.time)
	return true
}

// enqueue adds t to a core's queue at time `now`, running it immediately if
// the core is free.
func (ex *Executor) enqueue(t *Thread, core int, now uint64) {
	t.Core = core
	c := &ex.cores[core]
	if c.occupant == -1 && c.qlen() == 0 {
		c.occupant = t.ID
		if c.freeAt > t.time {
			t.time = c.freeAt
		}
		if now > t.time {
			t.time = now
		}
		t.time += t.pendingCost
		t.pendingCost = 0
		t.state = stateRunning
		ex.ready.push(t)
		return
	}
	t.state = stateQueued
	c.push(t.ID)
}

// releaseCore frees a core at time `now` and promotes the next waiter.
func (ex *Executor) releaseCore(core int, now uint64) {
	c := &ex.cores[core]
	c.occupant = -1
	if c.freeAt < now {
		c.freeAt = now
	}
	ex.promote(core, now)
}

// promote moves the head waiter (if any) onto the core.
func (ex *Executor) promote(core int, now uint64) {
	c := &ex.cores[core]
	if c.occupant != -1 || c.qlen() == 0 {
		return
	}
	id := c.popFront()
	t := ex.threads[id]
	c.occupant = id
	if t.time < now {
		t.time = now
	}
	if t.time < c.freeAt {
		t.time = c.freeAt
	}
	t.time += t.pendingCost
	t.pendingCost = 0
	t.state = stateRunning
	ex.ready.push(t)
}

// QueueLen reports a core's wait-queue length (scheduler load balancing).
func (ex *Executor) QueueLen(core int) int { return ex.cores[core].qlen() }

// CoreFree reports whether a core is unoccupied with an empty queue.
func (ex *Executor) CoreFree(core int) bool {
	return ex.cores[core].occupant == -1 && ex.cores[core].qlen() == 0
}

// before is the executor's strict total order on threads: (time, ID)
// lexicographic. IDs are unique, so ties cannot exist and any correct
// priority queue pops the same sequence the container/heap engine did.
func before(a, b *Thread) bool {
	return a.time < b.time || (a.time == b.time && a.ID < b.ID)
}

// readyRing is the ready set: the threads holding a core and waiting for
// their next event, sorted by (time, ID) in a ring over a preallocated
// slice, earliest at s[head]. Every ready thread occupies a core, so the
// ring never holds more than cores threads and never grows; its length is
// the next power of two, so an index wraps with one mask.
//
// A ring, not a binary heap: a preempted thread has just advanced by one
// event, so it almost always belongs at or near the back of the order. An
// insertion scanning back from the tail stops within a few slots, where a
// heap's sift-down from the root walks nearly its whole depth.
type readyRing struct {
	s       []*Thread
	mask    int // len(s) - 1
	head, n int
	cores   int // the bound on n
}

// newReadyRing returns an empty ring bounded at cores threads.
func newReadyRing(cores int) readyRing {
	size := 1
	for size < cores {
		size *= 2
	}
	return readyRing{s: make([]*Thread, size), mask: size - 1, cores: cores}
}

// push inserts t at its place in the order, scanning back from the tail.
func (r *readyRing) push(t *Thread) {
	if r.n == r.cores {
		panic("sim: ready set holds more threads than there are cores")
	}
	s, mask := r.s, r.mask
	i := (r.head + r.n) & mask // the free slot after the tail
	for k := r.n; k > 0; k-- {
		p := (i - 1) & mask
		q := s[p]
		if !before(t, q) {
			break
		}
		s[i] = q
		i = p
	}
	s[i] = t
	r.n++
}

// pop removes and returns the earliest thread.
func (r *readyRing) pop() *Thread {
	t := r.s[r.head]
	r.head = (r.head + 1) & r.mask
	r.n--
	return t
}

// swapHead exchanges the earliest thread for t: a pop, then a push of t.
func (r *readyRing) swapHead(t *Thread) *Thread {
	e := r.pop()
	r.push(t)
	return e
}
