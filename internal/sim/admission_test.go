package sim

import (
	"testing"

	"addict/internal/trace"
)

// admissionSpy records the max number of simultaneously live threads.
type admissionSpy struct {
	live    map[int]bool
	maxLive int
}

func (a *admissionSpy) Place(t *Thread) int { return 0 }
func (a *admissionSpy) Act(t *Thread, ev trace.Event) Action {
	if a.live == nil {
		a.live = make(map[int]bool)
	}
	if !a.live[t.ID] {
		a.live[t.ID] = true
		if len(a.live) > a.maxLive {
			a.maxLive = len(a.live)
		}
	}
	// Spread threads so several can be live: migrate by id.
	if ev.Kind() == trace.KindOpBegin {
		return MigrateTo(t.ID % 4)
	}
	return Run
}
func (a *admissionSpy) Observe(t *Thread, ev trace.Event, out AccessOutcome) {
	if t.Pos() >= len(t.Trace.Events) {
		delete(a.live, t.ID)
	}
}

func TestAdmitLimitBoundsConcurrency(t *testing.T) {
	var traces []*trace.Trace
	for i := 0; i < 12; i++ {
		traces = append(traces, mkTrace(i, 30))
	}
	spy := &admissionSpy{}
	ex := NewExecutor(NewMachine(smallConfig()), spy, traces)
	ex.AdmitLimit = 3
	res := ex.Run()
	if res.Threads != 12 {
		t.Fatalf("threads = %d", res.Threads)
	}
	if spy.maxLive > 3 {
		t.Errorf("max live threads = %d, admit limit 3", spy.maxLive)
	}
}

func TestAdmitUnlimitedByDefault(t *testing.T) {
	var traces []*trace.Trace
	for i := 0; i < 8; i++ {
		traces = append(traces, mkTrace(i, 30))
	}
	spy := &admissionSpy{}
	ex := NewExecutor(NewMachine(smallConfig()), spy, traces)
	ex.Run()
	if spy.maxLive < 2 {
		t.Errorf("max live = %d; expected concurrency without a limit", spy.maxLive)
	}
}

// TestLateAdmissionJoinsAtCurrentClock: a thread admitted after others
// finish must not start in the past.
func TestLateAdmissionJoinsAtCurrentClock(t *testing.T) {
	var traces []*trace.Trace
	for i := 0; i < 4; i++ {
		traces = append(traces, mkTrace(i, 50))
	}
	ex := NewExecutor(NewMachine(smallConfig()), &runAll{}, traces)
	ex.AdmitLimit = 1 // strictly serial
	ex.Run()
	threads := ex.Threads()
	for i := 1; i < len(threads); i++ {
		if threads[i].startTime < threads[i-1].endTime {
			t.Errorf("thread %d started at %d before predecessor ended at %d",
				i, threads[i].startTime, threads[i-1].endTime)
		}
	}
}
