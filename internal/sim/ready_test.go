package sim

import (
	"container/heap"
	"testing"

	"addict/internal/trace"
)

// threadQueue is the ready set's oracle: a container/heap over the same
// (time, ID) order.
type threadQueue []*Thread

func (q threadQueue) Len() int           { return len(q) }
func (q threadQueue) Less(i, j int) bool { return before(q[i], q[j]) }
func (q threadQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *threadQueue) Push(x any)        { *q = append(*q, x.(*Thread)) }
func (q *threadQueue) Pop() any {
	old := *q
	t := old[len(old)-1]
	*q = old[:len(old)-1]
	return t
}

// FuzzReadySetMatchesHeap drives the ready ring and a container/heap with
// the same push/pop/swapHead sequence and requires the same thread from
// every pop. Each pair of input bytes is one operation: the first picks the
// operation, the second the thread to push and its time. Times span only 32
// values over up to 128 threads, so equal times (ordered by ID) are common,
// and a few hundred operations wrap a small ring many times. As in the
// executor, a thread is in the set at most once and the set never holds
// more than the core count.
func FuzzReadySetMatchesHeap(f *testing.F) {
	long := make([]byte, 1024)
	for i := range long {
		long[i] = byte(i*37 + i/7)
	}
	f.Add(uint8(0), []byte{0, 5, 0, 5, 1, 0, 2, 9})
	f.Add(uint8(3), long)
	f.Add(uint8(15), long)
	f.Add(uint8(63), long)
	f.Fuzz(func(t *testing.T, cores uint8, ops []byte) {
		n := int(cores)%64 + 1
		pool := make([]Thread, 2*n)
		var outside []*Thread // threads not in the set
		for i := range pool {
			pool[i].ID = i
			outside = append(outside, &pool[i])
		}
		ring := newReadyRing(n)
		var ref threadQueue
		// take removes the outside thread that arg picks and gives it the
		// time arg encodes.
		take := func(arg byte) *Thread {
			i := int(arg) % len(outside)
			th := outside[i]
			outside[i] = outside[len(outside)-1]
			outside = outside[:len(outside)-1]
			th.time = uint64(arg >> 3)
			return th
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%3, ops[i+1]
			switch {
			case op == 0 && ring.n < n:
				th := take(arg)
				ring.push(th)
				heap.Push(&ref, th)
			case op == 1 && ring.n > 0:
				got, want := ring.pop(), heap.Pop(&ref).(*Thread)
				if got != want {
					t.Fatalf("op %d: pop = thread %d@%d, heap pops %d@%d", i/2, got.ID, got.time, want.ID, want.time)
				}
				outside = append(outside, got)
			case op == 2 && ring.n > 0:
				th := take(arg)
				got := ring.swapHead(th)
				want := heap.Pop(&ref).(*Thread)
				heap.Push(&ref, th)
				if got != want {
					t.Fatalf("op %d: swapHead = thread %d@%d, heap pops %d@%d", i/2, got.ID, got.time, want.ID, want.time)
				}
				outside = append(outside, got)
			}
			if ring.n != ref.Len() {
				t.Fatalf("op %d: ring holds %d threads, heap %d", i/2, ring.n, ref.Len())
			}
		}
		for ring.n > 0 {
			if got, want := ring.pop(), heap.Pop(&ref).(*Thread); got != want {
				t.Fatalf("drain: pop = thread %d@%d, heap pops %d@%d", got.ID, got.time, want.ID, want.time)
			}
		}
	})
}

func TestReadyRingRejectsMoreThreadsThanCores(t *testing.T) {
	pool := []Thread{{ID: 0}, {ID: 1}, {ID: 2}}
	ring := newReadyRing(2)
	ring.push(&pool[0])
	ring.push(&pool[1])
	defer func() {
		if recover() == nil {
			t.Error("a third push into a two-core ready set did not panic")
		}
	}()
	ring.push(&pool[2])
}

// readySpy places thread i on core i mod cores, migrates every thread one
// core over at each operation start, and records the largest ready set any
// Act call sees.
type readySpy struct {
	ex       *Executor
	cores    int
	maxReady int
}

func (r *readySpy) Place(t *Thread) int { return t.ID % r.cores }
func (r *readySpy) Act(t *Thread, ev trace.Event) Action {
	if r.ex.ready.n > r.maxReady {
		r.maxReady = r.ex.ready.n
	}
	if ev.Kind() == trace.KindOpBegin {
		return MigrateTo((t.ID + 1) % r.cores)
	}
	return Run
}
func (r *readySpy) Observe(*Thread, trace.Event, AccessOutcome) {}

// runSpied replays n small traces on a machine with the given core count.
// The ready set excludes the thread being run, so it must stay below the
// core count in every Act call.
func runSpied(t *testing.T, cores, threads, admitLimit int) Result {
	t.Helper()
	cfg := smallConfig()
	cfg.Cores = cores
	var traces []*trace.Trace
	for i := 0; i < threads; i++ {
		traces = append(traces, mkTrace(i, 40+7*i))
	}
	spy := &readySpy{cores: cores}
	ex := NewExecutor(NewMachine(cfg), spy, traces)
	spy.ex = ex
	ex.AdmitLimit = admitLimit
	res := ex.Run()
	if res.Threads != threads {
		t.Fatalf("threads = %d, want %d", res.Threads, threads)
	}
	if spy.maxReady >= cores {
		t.Errorf("%d cores: %d threads in the ready set beside the running one", cores, spy.maxReady)
	}
	if ex.ready.cores != cores {
		t.Errorf("ready ring bounded at %d threads for %d cores", ex.ready.cores, cores)
	}
	return res
}

// TestSingleCoreReplay: on one core the ready set holds at most one thread
// and threads run back to back in admission order, so an admission limit of
// one changes nothing.
func TestSingleCoreReplay(t *testing.T) {
	free := runSpied(t, 1, 6, 0)
	limited := runSpied(t, 1, 6, 1)
	if free.Migrations != 0 {
		t.Errorf("single core: %d migrations", free.Migrations)
	}
	if free.Makespan != free.CoreActive[0] {
		t.Errorf("single core: makespan %d, busy %d cycles; want no idle time", free.Makespan, free.CoreActive[0])
	}
	if free.Makespan != limited.Makespan || free.TotalLatency != limited.TotalLatency ||
		free.Machine.L1IMisses != limited.Machine.L1IMisses {
		t.Errorf("single core: AdmitLimit 1 changed the run: makespan %d vs %d, latency %d vs %d",
			free.Makespan, limited.Makespan, free.TotalLatency, limited.TotalLatency)
	}
}

// TestMoreCoresThanThreads: a ring sized for 64 cores serves three threads.
func TestMoreCoresThanThreads(t *testing.T) {
	res := runSpied(t, 64, 3, 0)
	if len(res.CoreActive) != 64 {
		t.Fatalf("CoreActive covers %d cores", len(res.CoreActive))
	}
	if res.Migrations != 3 {
		t.Errorf("migrations = %d, want one per thread", res.Migrations)
	}
}
