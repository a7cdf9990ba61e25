package sched

import (
	"fmt"

	"addict/internal/core"
	"addict/internal/sim"
	"addict/internal/trace"
)

// exampleSet builds a tiny two-type trace set with operation markers —
// enough structure for every mechanism family to make its decisions.
func exampleSet() *trace.Set {
	b := trace.NewBuffer()
	for i := 0; i < 4; i++ {
		tt := trace.TxnType(i % 2)
		b.TxnBegin(tt, []string{"alpha", "beta"}[tt])
		for op := 0; op < 2; op++ {
			b.OpBegin(trace.OpType(op))
			for k := 0; k < 40; k++ {
				b.Instr(uint64(0x400000 + int(tt)*0x10000 + op*0x1000 + (k%8)*64))
			}
			b.Data(uint64(0x900000+i*64), op == 1)
			b.OpEnd(trace.OpType(op))
		}
		b.TxnEnd()
	}
	return &trace.Set{Workload: "example", TypeNames: []string{"alpha", "beta"}, Traces: b.Take()}
}

// Baseline: each transaction starts and finishes on one core.
func ExampleRun() {
	res, err := Run(Baseline, exampleSet(), Config{Machine: sim.Shallow()})
	if err != nil {
		panic(err)
	}
	fmt.Println("transactions:", res.Threads)
	// Output: transactions: 4
}

// STREX: a batch of same-type transactions time-multiplexes one core,
// switching on L1-I eviction pressure.
func ExampleRun_strex() {
	res, err := Run(STREX, exampleSet(), Config{Machine: sim.Shallow()})
	if err != nil {
		panic(err)
	}
	fmt.Println("transactions:", res.Threads)
	// Output: transactions: 4
}

// SLICC: a miss-burst detector migrates threads as their fetches leave
// the cached code segment.
func ExampleRun_slicc() {
	res, err := Run(SLICC, exampleSet(), Config{Machine: sim.Shallow()})
	if err != nil {
		panic(err)
	}
	fmt.Println("transactions:", res.Threads)
	// Output: transactions: 4
}

// ADDICT needs Algorithm 1's migration-point profile; here it is computed
// from the same set the replay then runs.
func ExampleRun_addict() {
	set := exampleSet()
	cfg := Config{Machine: sim.Shallow()}
	cfg.Profile = core.FindMigrationPoints(set, core.ProfileConfig{L1I: cfg.Machine.L1I})
	res, err := Run(ADDICT, set, cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println("transactions:", res.Threads)
	// Output: transactions: 4
}

// HTMSPEC runs each operation window as a bounded speculative region; a
// window touching more lines than the set bound takes a capacity abort,
// surfaced through the result's speculation counters.
func ExampleRun_htmspec() {
	b := trace.NewBuffer()
	b.TxnBegin(0, "wide")
	b.OpBegin(0)
	for i := 0; i < HTMSPECReadSetLines+1; i++ {
		b.Data(uint64(0x200000+i*64), false) // one line past the read-set bound
	}
	b.OpEnd(0)
	b.TxnEnd()
	set := &trace.Set{Workload: "example", TypeNames: []string{"wide"}, Traces: b.Take()}

	res, err := Run(HTMSPEC, set, Config{Machine: sim.Shallow()})
	if err != nil {
		panic(err)
	}
	fmt.Println("capacity aborts:", res.Spec.CapacityAborts)
	// Output: capacity aborts: 1
}

// CHAIN chases each operation window to the core owning that operation's
// code — ADDICT's migration idea with markers instead of a profile.
func ExampleRun_chain() {
	res, err := Run(CHAIN, exampleSet(), Config{Machine: sim.Shallow()})
	if err != nil {
		panic(err)
	}
	fmt.Println("transactions:", res.Threads)
	// Output: transactions: 4
}

// Mechanism names resolve case-insensitively, with a nearest-name
// suggestion on a typo.
func ExampleParseMechanism() {
	m, _ := ParseMechanism("htmspec")
	fmt.Println(m)
	_, err := ParseMechanism("ADICT")
	fmt.Println(err)
	// Output:
	// HTMSPEC
	// sched: unknown mechanism "ADICT" (did you mean "ADDICT"? have Baseline, STREX, SLICC, ADDICT, HTMSPEC, CHAIN)
}
