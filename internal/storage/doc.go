// Package storage implements the transactional storage manager that
// generates the paper's workload traces: a miniature Shore-MT with slotted
// pages, a buffer pool, B+tree indexes, an S/X lock manager, and a log
// manager (Section 4.1 of the paper runs Shore-MT with the Aether logging
// and speculative-lock optimizations; we model their scalable fast paths).
//
// Every routine is instrumented: executing it emits instruction-block
// fetches from its codemap segment and data-block accesses from the real
// pages, lock buckets, and log buffer it touches, producing the traces that
// the Section 2 characterization study analyzes and the Section 4
// scheduling mechanisms replay. Control flow is real — the allocate-page
// path runs only when a page actually fills, structural modifications only
// when a node actually splits — which is what makes the Figure 2 overlap
// structure organic rather than hardcoded.
//
// A Manager records into the *trace.Buffer installed with SetRecorder. With
// none installed (population and warm-up, which the paper leaves untraced)
// it makes exactly the same state changes and computes no event.
package storage
