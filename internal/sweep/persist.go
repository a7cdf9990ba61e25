package sweep

import (
	"encoding/json"
	"fmt"
	"io"

	"addict/internal/cache"
	"addict/internal/core"
	"addict/internal/sched"
	"addict/internal/sim"
	"addict/internal/trace"
	"addict/internal/workload"
)

// On-disk artifact identity. Every artifact kind the cache holds gets a
// fully-resolved spec string — workload encoding, seed/scale/windows,
// shard recipe, and (where content depends on them) machine signature and
// algorithm version — which internal/store hashes into the content
// address. Two processes that resolve the same spec rendezvous on the same
// entry; any parameter that changes an artifact's bytes MUST appear in its
// spec, and any semantic change to a generator or codec MUST bump the
// version token below, or stale entries would verify clean and decode into
// wrong answers.

// persistVersion tags every disk spec with the artifact-recipe generation.
// Bump it when trace generation, Algorithm 1, the replay semantics, or a
// codec changes meaning — old entries then simply miss instead of
// masquerading as current.
const persistVersion = "adct-v2"

// diskBase renders the cache's base parameters as the shared spec prefix.
func (a *Artifacts) diskBase() string {
	return fmt.Sprintf("%s|seed=%d|scale=%g|prof=%d|eval=%d|shard=%d",
		persistVersion, a.seed, a.scale, a.profileTraces, a.evalTraces,
		workload.DefaultShardSize)
}

// entry names one artifact: its fully-resolved spec string (the in-memory
// key, and hashed by the store into the file key) and the codec for its
// kind. Encodings must round-trip to an equivalent value — the artifacts
// regenerate deterministically, so a decoded value and a recomputed one
// must be interchangeable in every downstream report.
type entry struct {
	spec   string
	encode func(w io.Writer, v any) error
	decode func(r io.Reader) (any, error)
}

// setEntry is the identity of a trace window, persisted through the
// run-length trace codec (trace.WriteSet), the format cmd/tracegen writes.
func (a *Artifacts) setEntry(kind, name string) entry {
	return entry{
		spec:   kind + "|" + a.base + "|wl=" + name,
		encode: func(w io.Writer, v any) error { return trace.WriteSet(w, v.(*trace.Set)) },
		decode: func(r io.Reader) (any, error) { return trace.ReadSet(r) },
	}
}

// profileEntry is the identity of an Algorithm 1 profile: its content
// depends on the profiling window, the L1-I geometry it profiles against,
// and the storage manager's no-migrate layout. The layout is not persisted
// (it only affects profiling, which already happened) and is
// deterministic, so the spec's version token pins it instead.
func (a *Artifacts) profileEntry(name string, m sim.Config) entry {
	return entry{
		spec: fmt.Sprintf("profile|%s|wl=%s|l1i=%d/%d|layout=v1",
			a.base, name, m.L1I.SizeBytes, m.L1I.Ways),
		encode: func(w io.Writer, v any) error { return core.WriteProfile(w, v.(*core.Profile)) },
		decode: func(r io.Reader) (any, error) { return core.ReadProfile(r) },
	}
}

// resultEntry is the identity of a replay result: the evaluation window
// plus the mechanism and the full machine signature, persisted as JSON of
// resultWire.
func (a *Artifacts) resultEntry(name string, mech sched.Mechanism, m sim.Config) entry {
	return entry{
		spec:   "result|" + a.base + "|wl=" + name + "|mech=" + string(mech) + "|machine=" + machineSig(m),
		encode: encodeResult,
		decode: decodeResult,
	}
}

// machineSig renders a machine configuration as a stable key component:
// identical configurations produce identical signatures, and any field
// that differs produces a different one. It formats a method-free copy,
// because sim.Config's String summarizes only a few fields. The PrivateL2
// pointer is flattened to its value so the signature never embeds a heap
// address.
func machineSig(m sim.Config) string {
	type plain sim.Config
	var l2 cache.Config
	if m.PrivateL2 != nil {
		l2 = *m.PrivateL2
	}
	m.PrivateL2 = nil
	return fmt.Sprintf("%+v|%+v", plain(m), l2)
}

// resultWire is the persisted form of a replay result: the result's
// exported counters (Machine included — its exported fields are the
// counters and the configuration) plus the per-level cache aggregates,
// which live inside unexported cache objects on a live machine. All fields
// are integers or exactly-round-tripping float64s, so a decoded result
// reduces to byte-identical metrics.
type resultWire struct {
	Result sim.Result  `json:"result"`
	L1I    cache.Stats `json:"l1i"`
	L1D    cache.Stats `json:"l1d"`
	Shared cache.Stats `json:"shared"`
}

func encodeResult(w io.Writer, v any) error {
	res := v.(sim.Result)
	wire := resultWire{Result: res}
	if res.Machine != nil {
		wire.L1I, wire.L1D, wire.Shared = res.Machine.CacheStats()
	}
	return json.NewEncoder(w).Encode(wire)
}

func decodeResult(r io.Reader) (any, error) {
	var wire resultWire
	if err := json.NewDecoder(r).Decode(&wire); err != nil {
		return nil, err
	}
	if wire.Result.Machine == nil {
		return nil, fmt.Errorf("sweep: persisted result carries no machine")
	}
	wire.Result.Machine.MarkRestored(wire.L1I, wire.L1D, wire.Shared)
	return wire.Result, nil
}
