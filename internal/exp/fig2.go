package exp

import (
	"io"
	"sort"

	"addict/internal/stats"
	"addict/internal/trace"
)

// Fig2 computes instruction and data footprint overlaps at the paper's
// three granularities — the whole workload mix, each transaction type, and
// each database operation within a type (Section 2.2, Figure 2).
type Fig2Result struct {
	Workload string
	// Mix is the overlap across all transactions of the mix.
	MixInstr, MixData stats.OverlapResult
	// PerTxn holds the overlaps for each transaction type, most frequent
	// first.
	PerTxn []Fig2Txn
}

// Fig2Txn is one transaction type's overlap summary.
type Fig2Txn struct {
	Name        string
	Instances   int
	Instr, Data stats.OverlapResult
	// Ops holds per-operation instruction overlaps within this type.
	Ops []Fig2Op
}

// Fig2Op is one operation's instruction overlap inside a transaction type.
type Fig2Op struct {
	Op        trace.OpType
	Instances int
	Instr     stats.OverlapResult
}

// Fig2 analyzes one workload from the workbench's profiling set.
func Fig2(w *Workbench, workloadName string) Fig2Result {
	set := w.ProfileSet(workloadName)
	res := Fig2Result{Workload: workloadName}

	var mixInstr, mixData []map[uint64]struct{}
	perTxnInstr := make(map[trace.TxnType][]map[uint64]struct{})
	perTxnData := make(map[trace.TxnType][]map[uint64]struct{})
	type opKey struct {
		tt trace.TxnType
		op trace.OpType
	}
	perOp := make(map[opKey][]map[uint64]struct{})

	for _, t := range set.Traces {
		instr, data := t.Footprint()
		mixInstr = append(mixInstr, instr)
		mixData = append(mixData, data)
		perTxnInstr[t.Type] = append(perTxnInstr[t.Type], instr)
		perTxnData[t.Type] = append(perTxnData[t.Type], data)
		for _, o := range t.Ops() {
			if o.Op == trace.OpCommit {
				continue // Figure 2 covers the five database operations
			}
			fp := make(map[uint64]struct{})
			for _, e := range t.Events[o.Start:o.End] {
				if e.Kind() == trace.KindInstr {
					fp[e.Addr()] = struct{}{}
				}
			}
			k := opKey{tt: t.Type, op: o.Op}
			perOp[k] = append(perOp[k], fp)
		}
	}

	res.MixInstr = stats.Overlap(mixInstr)
	res.MixData = stats.Overlap(mixData)

	// Transaction types ordered by frequency.
	type tcount struct {
		tt trace.TxnType
		n  int
	}
	var order []tcount
	for tt, fps := range perTxnInstr {
		order = append(order, tcount{tt, len(fps)})
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].n != order[j].n {
			return order[i].n > order[j].n
		}
		return order[i].tt < order[j].tt
	})
	for _, tc := range order {
		txn := Fig2Txn{
			Name:      set.TypeName(tc.tt),
			Instances: tc.n,
			Instr:     stats.Overlap(perTxnInstr[tc.tt]),
			Data:      stats.Overlap(perTxnData[tc.tt]),
		}
		for _, op := range []trace.OpType{trace.OpIndexProbe, trace.OpIndexScan, trace.OpUpdateTuple, trace.OpInsertTuple, trace.OpDeleteTuple} {
			fps := perOp[opKey{tt: tc.tt, op: op}]
			if len(fps) == 0 {
				continue
			}
			txn.Ops = append(txn.Ops, Fig2Op{Op: op, Instances: len(fps), Instr: stats.Overlap(fps)})
		}
		res.PerTxn = append(res.PerTxn, txn)
	}
	return res
}

// Render prints the Figure 2 bucket tables.
func (r Fig2Result) Render(out io.Writer) {
	section(out, "Figure 2: Footprint overlap — "+r.Workload)
	t := &stats.Table{Header: []string{"granularity", "kind", "blocks",
		stats.BucketLabels[0], stats.BucketLabels[1], stats.BucketLabels[2], stats.BucketLabels[3], stats.BucketLabels[4], ">=90%"}}
	row := func(name, kind string, o stats.OverlapResult) {
		t.AddRow(name, kind, stats.N(o.FootprintBlocks),
			stats.Pct(o.Shares[0]), stats.Pct(o.Shares[1]), stats.Pct(o.Shares[2]),
			stats.Pct(o.Shares[3]), stats.Pct(o.Shares[4]), stats.Pct(o.CommonShare()))
	}
	row("mix", "instr", r.MixInstr)
	row("mix", "data", r.MixData)
	for _, txn := range r.PerTxn {
		row(txn.Name, "instr", txn.Instr)
		row(txn.Name, "data", txn.Data)
		for _, op := range txn.Ops {
			row("  "+txn.Name+"/"+op.Op.String(), "instr", op.Instr)
		}
	}
	t.Render(out)
}
