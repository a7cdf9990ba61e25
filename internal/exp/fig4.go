package exp

import (
	"io"

	"addict/internal/core"
	"addict/internal/stats"
	"addict/internal/trace"
	"addict/internal/workload"
	"addict/internal/workload/synth"
)

// Fig4 measures migration-point stability (Section 4.2): the percentage of
// operation instances whose solo-run Algorithm 1 points exactly match the
// profile chosen from the first 1000 traces, evaluated over the next 1000
// and the next 10000 traces. Evaluation traces stream one at a time, so the
// 10000-trace runs stay memory-bounded.
type Fig4Result struct {
	Workload string
	// At1k/At10k hold the per-(txn, op) match rates at the two trace
	// counts (the paper's x-axis: "Total Number of Transaction Traces").
	At1k, At10k []core.StabilityRow
}

// Fig4 evaluates the named workloads (the paper shows TPC-B AccountUpdate
// and TPC-C NewOrder/Payment; the runner accepts any subset of Workloads).
func Fig4(w *Workbench, workloadName string) Fig4Result {
	prof := w.Profile(workloadName)
	res := Fig4Result{Workload: workloadName}

	small := w.P.EvalTraces
	large := w.P.StabilityTraces

	counterSmall := core.NewStabilityCounter(prof)
	counterLarge := core.NewStabilityCounter(prof)
	// Stream the shards beyond the profiling window with the same sharded
	// warm-started recipe the profile was trained on, so stability is
	// measured against traces from the generation regime the profile saw.
	// The first EvalTraces streamed traces are exactly the workbench's
	// eval set (same shard range); the stream then continues into further
	// shards for the large count, staying memory-bounded.
	base := workload.NumShards(w.P.ProfileTraces, workload.DefaultShardSize)
	_, build, err := synth.Workload(workloadName)
	if err != nil {
		panic(err) // w.Profile has already resolved the name
	}
	err = workload.StreamSharded(w.ctx, build, w.P.Seed, w.P.Scale,
		base, large, workload.DefaultShardSize, func(i int, t *trace.Trace) {
			counterLarge.AddTrace(t)
			if i < small {
				counterSmall.AddTrace(t)
			}
		})
	if err != nil {
		if w.ctx.Err() != nil {
			panic(cancelPanic{err})
		}
		panic(err)
	}
	res.At1k = counterSmall.Rows()
	res.At10k = counterLarge.Rows()
	return res
}

// Render prints the stability bars.
func (r Fig4Result) Render(out io.Writer) {
	section(out, "Figure 4: Migration-point stability — "+r.Workload)
	t := &stats.Table{Header: []string{"transaction", "operation", "match@small", "match@large", "instances@large"}}
	idx := make(map[string]core.StabilityRow, len(r.At10k))
	for _, row := range r.At10k {
		idx[row.TxnName+"/"+row.Op.String()] = row
	}
	for _, row := range r.At1k {
		big := idx[row.TxnName+"/"+row.Op.String()]
		t.AddRow(row.TxnName, row.Op.String(), stats.Pct(row.MatchRate()), stats.Pct(big.MatchRate()), stats.N(big.Instances))
	}
	t.Render(out)
}
