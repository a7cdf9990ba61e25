package exp

import (
	"io"

	"addict/internal/stats"
	"addict/internal/trace"
)

// Fig3 measures the average per-address reuse within one instance, grouped
// by cross-instance commonality — Figure 3's "the frequently reused
// addresses across transaction and operation instances are also frequently
// reused within each instance", shown for TPC-B's AccountUpdate and its
// insert operation.
type Fig3Result struct {
	Workload string
	TxnName  string
	// TxnInstr/TxnData are the per-band reuse profiles over whole
	// transactions.
	TxnInstr, TxnData []stats.ReuseBand
	// InsertInstr/InsertData cover the insert-tuple operation instances.
	InsertInstr, InsertData []stats.ReuseBand
}

// Fig3 analyzes the workbench's TPC-B profiling traces.
func Fig3(w *Workbench) Fig3Result {
	set := w.ProfileSet("TPC-B")
	res := Fig3Result{Workload: "TPC-B", TxnName: "AccountUpdate"}

	txnI, txnD := stats.NewFootprintCounter(), stats.NewFootprintCounter()
	insI, insD := stats.NewFootprintCounter(), stats.NewFootprintCounter()

	for _, t := range set.Traces {
		ti := make(map[uint64]uint64)
		td := make(map[uint64]uint64)
		for _, e := range t.Events {
			switch e.Kind() {
			case trace.KindInstr:
				ti[e.Addr()]++
			case trace.KindDataRead, trace.KindDataWrite:
				td[e.Addr()]++
			}
		}
		txnI.AddInstance(ti)
		txnD.AddInstance(td)
		for _, o := range t.Ops() {
			if o.Op != trace.OpInsertTuple {
				continue
			}
			oi := make(map[uint64]uint64)
			od := make(map[uint64]uint64)
			for _, e := range t.Events[o.Start:o.End] {
				switch e.Kind() {
				case trace.KindInstr:
					oi[e.Addr()]++
				case trace.KindDataRead, trace.KindDataWrite:
					od[e.Addr()]++
				}
			}
			insI.AddInstance(oi)
			insD.AddInstance(od)
		}
	}
	res.TxnInstr = txnI.ReuseProfile()
	res.TxnData = txnD.ReuseProfile()
	res.InsertInstr = insI.ReuseProfile()
	res.InsertData = insD.ReuseProfile()
	return res
}

// Render prints the reuse-by-commonality bands.
func (r Fig3Result) Render(out io.Writer) {
	section(out, "Figure 3: Within-instance reuse by cross-instance commonality — "+r.TxnName)
	t := &stats.Table{Header: []string{"scope", "kind", "band", "blocks", "avg reuse/instance"}}
	add := func(scope, kind string, bands []stats.ReuseBand) {
		for _, b := range bands {
			if b.Blocks == 0 {
				continue
			}
			t.AddRow(scope, kind, stats.BucketLabels[b.Bucket], stats.N(b.Blocks), stats.F(b.AvgReuse, 2))
		}
	}
	add(r.TxnName, "instr", r.TxnInstr)
	add(r.TxnName, "data", r.TxnData)
	add("insert op", "instr", r.InsertInstr)
	add("insert op", "data", r.InsertData)
	t.Render(out)
}
