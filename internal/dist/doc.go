// Package dist executes one sweep grid across many processes: a
// coordinator expands the spec into stable unit IDs and leases units over
// HTTP/JSON to workers that compute them through the shared artifact path
// (sweep.RunUnit over sweep.Artifacts) and report metrics back; the
// coordinator merges the results into a report byte-identical to the
// single-process sweep engine's output.
//
// The determinism contract does all the heavy lifting. Every unit is a
// pure function of its stable ID's parameters — the simulation is
// deterministic, trace generation is worker-count independent, and the
// unit ID never depends on grid position — so a unit may be computed by
// any worker, recomputed after a crash, or computed twice concurrently
// (straggler re-dispatch near the tail) and the merged report cannot
// change. Failure handling therefore never needs consensus: a lease that
// times out is simply requeued, a duplicate completion is discarded, and a
// worker-reported error retries with exponential backoff until a bounded
// attempt budget aborts the run. Workers that rendezvous on one
// content-addressed store directory (internal/store) resolve identical
// artifact specs to identical disk addresses, so a re-dispatched unit is
// usually a cache hit rather than a recomputation.
//
// The coordinator is transport-agnostic serving state: Handler returns the
// route table and Run merges and emits, so the same code runs under a
// dedicated listener (cmd/addict-sweep -serve-workers), inside the serving
// daemon (POST /v1/sweep distributed mode), or under httptest. Workers are
// one function (Work) that joins, leases, computes on the caller's session
// cache, and completes until the coordinator reports the grid done.
package dist
