// Package pool provides the bounded worker pool (with cooperative
// context cancellation, RunCtx) shared by the parallel experiment engine
// (internal/exp), the parameter-sweep engine (internal/sweep), sharded
// trace generation (internal/workload), and the session facade (package
// addict, the Engine), and the error-aware, weight-bounded single-flight
// memoization cache (LRU) behind the session artifact cache
// (sweep.Artifacts) and the serving daemon's request coalescing.
//
// It has no counterpart in the paper: it exists so the Section 4 evaluation
// — and the sensitivity sweeps built on top of it — can run on a worker
// pool while staying byte-identical to a serial run, and so a Ctrl-C (or
// any context cancellation) unwinds every pipeline between work items.
package pool
