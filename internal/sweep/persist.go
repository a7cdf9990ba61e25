package sweep

import (
	"encoding/json"
	"fmt"
	"io"

	"addict/internal/cache"
	"addict/internal/core"
	"addict/internal/sim"
	"addict/internal/store"
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

// setEntry is the on-disk identity of a trace window.
func (a *Artifacts) setEntry(kind, name string) store.Entry {
	return store.Entry{
		Spec:  kind + "|" + a.diskBase() + "|wl=" + name,
		Codec: setCodec{},
	}
}

// profileEntry is the on-disk identity of an Algorithm 1 profile: its
// content depends on the profiling window, the L1-I geometry it profiles
// against, and the storage manager's no-migrate layout (deterministic, so
// a version token pins it).
func (a *Artifacts) profileEntry(name string, m sim.Config) store.Entry {
	return store.Entry{
		Spec: fmt.Sprintf("profile|%s|wl=%s|l1i=%d/%d|layout=v1",
			a.diskBase(), name, m.L1I.SizeBytes, m.L1I.Ways),
		Codec: profileCodec{},
	}
}

// resultEntry is the on-disk identity of a replay result: the evaluation
// window plus the full machine signature and mechanism.
func (a *Artifacts) resultEntry(name, mech, machineSig string) store.Entry {
	return store.Entry{
		Spec:  "result|" + a.diskBase() + "|wl=" + name + "|mech=" + mech + "|machine=" + machineSig,
		Codec: resultCodec{},
	}
}

// setCodec persists trace windows through the run-length trace codec
// (trace.WriteSet), the format cmd/tracegen writes.
type setCodec struct{}

func (setCodec) Encode(w io.Writer, v any) error { return trace.WriteSet(w, v.(*trace.Set)) }
func (setCodec) Decode(r io.Reader) (any, error) { return trace.ReadSet(r) }

// profileCodec persists Algorithm 1 profiles through the core binary
// format. The profiling-time NoMigrate layout is not persisted (it only
// affects profiling, which already happened); the spec's layout token pins
// it instead.
type profileCodec struct{}

func (profileCodec) Encode(w io.Writer, v any) error { return core.WriteProfile(w, v.(*core.Profile)) }
func (profileCodec) Decode(r io.Reader) (any, error) { return core.ReadProfile(r) }

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

// resultCodec persists replay results as JSON of resultWire.
type resultCodec struct{}

func (resultCodec) Encode(w io.Writer, v any) error {
	res := v.(sim.Result)
	wire := resultWire{Result: res}
	if res.Machine != nil {
		wire.L1I, wire.L1D, wire.Shared = res.Machine.CacheStats()
	}
	return json.NewEncoder(w).Encode(wire)
}

func (resultCodec) Decode(r io.Reader) (any, error) {
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
