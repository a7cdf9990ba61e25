package exp

import (
	"io"

	"addict/internal/codemap"
	"addict/internal/stats"
	"addict/internal/trace"
)

// Fig1 measures the per-routine instruction footprints of the five database
// operations over the TPC-C mix — the flow-graph percentages of Figure 1
// ("the footprint is measured as the unique 64byte cache blocks requested
// by each operation when running 1000 transactions from the transaction mix
// of TPC-C").
type Fig1Result struct {
	// OpFootprint[op] is the union instruction footprint (blocks) of all
	// instances of the operation in the mix.
	OpFootprint map[trace.OpType]int
	// Edges are the flow-graph labels: |footprint(callee)| as a share of
	// |footprint(parent)|.
	Edges []Fig1Edge
}

// Fig1Edge is one labeled arrow of Figure 1.
type Fig1Edge struct {
	Parent, Child string
	// Share is |fp(child ∩ parent-instances)| / |fp(parent)|.
	Share float64
	// Paper is the percentage printed in Figure 1.
	Paper float64
	// Dashed marks conditionally executed paths.
	Dashed bool
}

// Fig1 runs the measurement on the workbench's TPC-C profiling set.
func Fig1(w *Workbench) Fig1Result {
	set := w.ProfileSet("TPC-C")
	lay := w.Layout

	// Union footprint per operation, and per routine within each operation.
	opFP := make(map[trace.OpType]map[uint64]struct{})
	for _, t := range set.Traces {
		for _, o := range t.Ops() {
			fp := opFP[o.Op]
			if fp == nil {
				fp = make(map[uint64]struct{})
				opFP[o.Op] = fp
			}
			for _, e := range t.Events[o.Start:o.End] {
				if e.Kind() == trace.KindInstr {
					fp[e.Addr()] = struct{}{}
				}
			}
		}
	}

	// Share of an op's footprint inside a set of routines.
	share := func(op trace.OpType, routines ...string) float64 {
		fp := opFP[op]
		if len(fp) == 0 {
			return 0
		}
		n := 0
		for a := range fp {
			if seg, ok := lay.Find(a); ok {
				for _, r := range routines {
					if seg.Name == r {
						n++
						break
					}
				}
			}
		}
		return float64(n) / float64(len(fp))
	}

	res := Fig1Result{OpFootprint: make(map[trace.OpType]int)}
	for op, fp := range opFP {
		res.OpFootprint[op] = len(fp)
	}

	probeCallees := []string{codemap.RLookup, codemap.RTraverse, codemap.RBufFind, codemap.RLatch, codemap.RLockAcquire}
	res.Edges = []Fig1Edge{
		{Parent: "find key", Child: "lookup", Paper: 0.73,
			Share: share(trace.OpIndexProbe, probeCallees...)},
		{Parent: "lookup", Child: "traverse", Paper: 0.71,
			Share: ratio(share(trace.OpIndexProbe, codemap.RTraverse, codemap.RBufFind, codemap.RLatch, codemap.RLockAcquire),
				share(trace.OpIndexProbe, probeCallees...))},
		{Parent: "traverse", Child: "lock", Paper: 0.33,
			Share: ratio(share(trace.OpIndexProbe, codemap.RLockAcquire),
				share(trace.OpIndexProbe, codemap.RTraverse, codemap.RBufFind, codemap.RLatch, codemap.RLockAcquire))},
		{Parent: "index scan", Child: "initialize cursor", Paper: 0.75,
			Share: share(trace.OpIndexScan, codemap.RInitCursor, codemap.RTraverse, codemap.RBufFind, codemap.RLatch, codemap.RLockAcquire)},
		{Parent: "index scan", Child: "fetch next", Paper: 0.25,
			Share: share(trace.OpIndexScan, codemap.RFetchNext)},
		{Parent: "update tuple", Child: "pin record page", Paper: 0.46,
			Share: share(trace.OpUpdateTuple, codemap.RPinRecord, codemap.RBufFind, codemap.RLatch)},
		{Parent: "update tuple", Child: "update page", Paper: 0.40,
			Share: share(trace.OpUpdateTuple, codemap.RUpdatePage, codemap.RLogInsert)},
		{Parent: "insert tuple", Child: "create record", Paper: 0.44,
			Share: share(trace.OpInsertTuple, codemap.RCreateRecord, codemap.RAllocatePage, codemap.RBufFind, codemap.RLatch, codemap.RLogInsert)},
		{Parent: "insert tuple", Child: "create index entry", Paper: 0.56,
			Share: share(trace.OpInsertTuple, codemap.RCreateIndexEntry, codemap.RIndexDescent, codemap.RBtreeSMO)},
		{Parent: "create record", Child: "allocate page", Paper: 0.47, Dashed: true,
			Share: ratio(share(trace.OpInsertTuple, codemap.RAllocatePage),
				share(trace.OpInsertTuple, codemap.RCreateRecord, codemap.RAllocatePage, codemap.RBufFind, codemap.RLatch, codemap.RLogInsert))},
		{Parent: "create index entry", Child: "structural modification", Paper: 0.65, Dashed: true,
			Share: ratio(share(trace.OpInsertTuple, codemap.RBtreeSMO),
				share(trace.OpInsertTuple, codemap.RCreateIndexEntry, codemap.RIndexDescent, codemap.RBtreeSMO))},
	}
	return res
}

// Render prints the Figure 1 table.
func (r Fig1Result) Render(out io.Writer) {
	section(out, "Figure 1: Instruction footprints of database operations (TPC-C mix)")
	t := &stats.Table{Header: []string{"operation", "footprint blocks", "KB"}}
	for _, op := range []trace.OpType{trace.OpIndexProbe, trace.OpIndexScan, trace.OpUpdateTuple, trace.OpInsertTuple, trace.OpDeleteTuple} {
		fp := r.OpFootprint[op]
		t.AddRow(op.String(), stats.N(fp), stats.N(fp*64>>10))
	}
	t.Render(out)
	e := &stats.Table{Header: []string{"edge (A -> B)", "measured", "paper", "path"}}
	for _, edge := range r.Edges {
		path := "always"
		if edge.Dashed {
			path = "dashed"
		}
		e.AddRow(edge.Parent+" -> "+edge.Child, stats.Pct(edge.Share), stats.Pct(edge.Paper), path)
	}
	e.Render(out)
}
