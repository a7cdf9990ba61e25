package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"

	"addict/internal/store"
	"addict/internal/sweep"
)

// Wire protocol: three POST endpoints under /dist/v2/, spoken through
// internal/wire — bodies decode under wire.Decode (1 MiB, no unknown
// fields), errors answer {"error": msg} (400 malformed, 403 unjoined
// worker, 405 wrong method), and workers retry transport failures only.
// Leases carry unit *indexes*, not unit payloads: the coordinator ships the
// fully resolved spec once at join, both sides expand it to the same
// []Unit, and every subsequent message names units by (index, id). The ID
// doubles as an end-to-end check that both expansions agree; GridHash
// catches version skew the ID alone cannot (the ID omits seed, scale, and
// trace windows). A lease request is a long poll: when nothing is
// leasable the coordinator holds it for at most its PollInterval, and an
// empty answer means "ask again now". The path version names that
// contract, so a worker and coordinator that disagree on it fail at join
// (404) instead of misreading each other's lease answers.
const (
	pathJoin     = "/dist/v2/join"
	pathLease    = "/dist/v2/lease"
	pathComplete = "/dist/v2/complete"
)

// joinRequest registers a worker with the coordinator.
type joinRequest struct {
	// Name is the worker's self-reported label (hostname, flag), kept for
	// the counter summary; the coordinator assigns the authoritative ID.
	Name string `json:"name,omitempty"`
}

type joinResponse struct {
	// WorkerID is the coordinator-assigned identity the worker presents on
	// every subsequent request.
	WorkerID string `json:"worker_id"`
	// Spec is the fully resolved sweep spec (every defaulted parameter
	// spelled out), so the worker's local expansion and artifact recipe
	// cannot drift from the coordinator's.
	Spec sweep.Spec `json:"spec"`
	// Units is the expanded grid size, GridHash the digest over the
	// resolved spec plus every unit ID. A worker whose local expansion
	// disagrees with either must refuse to compute.
	Units    int    `json:"units"`
	GridHash string `json:"grid_hash"`
}

// leaseRequest asks for up to Max units to compute (0 = the coordinator's
// batch size, which is what workers send).
type leaseRequest struct {
	WorkerID string `json:"worker_id"`
	Max      int    `json:"max"`
	// Store piggybacks the worker's artifact-store counters so the
	// coordinator's summary can report per-worker hit rates without a
	// separate metrics channel.
	Store *store.Stats `json:"store,omitempty"`
}

// leaseUnit names one leased unit by grid position and stable ID.
type leaseUnit struct {
	Index int    `json:"index"`
	ID    string `json:"id"`
}

// leaseResponse answers a lease request. One with no units and neither
// Done nor Abort means the coordinator held the request for its poll
// interval without anything becoming leasable: the worker asks again at
// once, and the next request is held in turn.
type leaseResponse struct {
	Units []leaseUnit `json:"units,omitempty"`
	// Done means every unit is complete: the worker should exit cleanly.
	Done bool `json:"done,omitempty"`
	// Abort is a fatal run error (retry budget exhausted, emitter failure,
	// coordinator cancelled): the worker should stop and report it.
	Abort string `json:"abort,omitempty"`
}

// completeRequest reports one unit's outcome: Metrics on success, Error on
// a compute failure (the coordinator decides requeue vs abort).
type completeRequest struct {
	WorkerID string         `json:"worker_id"`
	Index    int            `json:"index"`
	ID       string         `json:"id"`
	Metrics  *sweep.Metrics `json:"metrics,omitempty"`
	Error    string         `json:"error,omitempty"`
	Store    *store.Stats   `json:"store,omitempty"`
}

type completeResponse struct {
	// Duplicate reports that the unit was already complete when this
	// result arrived (straggler re-dispatch or an expired-lease revenant);
	// the result was discarded, which is safe because units are
	// deterministic. Informational only.
	Duplicate bool `json:"duplicate,omitempty"`
}

// gridHash digests the resolved spec and the expanded unit IDs. Metrics
// travel as JSON float64 (exact round-trip in Go), so two processes that
// agree on this hash and share the artifact recipe produce byte-identical
// rows for the same unit.
func gridHash(spec sweep.Spec, units []sweep.Unit) string {
	h := sha256.New()
	b, _ := json.Marshal(spec)
	h.Write(b)
	h.Write([]byte{0})
	for _, u := range units {
		io.WriteString(h, u.ID)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
