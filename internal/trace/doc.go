// Package trace defines the memory-trace model shared by every component of
// the ADDICT reproduction: the storage manager emits traces, the
// characterization study analyzes them, and the scheduling mechanisms replay
// them on the timing simulator.
//
// A trace is the per-transaction sequence of instruction-block fetches and
// data accesses, delimited by transaction and database-operation markers —
// the same abstraction the paper obtains from Pin-collected x86 traces
// (Section 4.1), at 64-byte cache-block granularity (Section 2.1). codec.go
// adds the binary serialization (cmd/tracegen), recorder.go the Buffer
// the storage manager records into.
package trace
