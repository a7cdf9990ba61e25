package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"addict/internal/sweep"
)

// FuzzCoordinatorRequests is the fuzz target for the coordinator's request
// decoders: arbitrary bodies go to join, lease, and complete in turn —
// complete twice, so a repeated completion is exercised too — on a
// coordinator that already has one joined worker (w1) holding a lease, so
// well-formed bodies reach the lease state machine. Whatever arrives, the
// coordinator never panics, answers only 200, 400, 403, or 405 — never a
// 5xx — and never counts more completed units than the grid holds.
//
// CI runs this briefly on every push (see the fuzz-smoke step); longer
// local runs: go test ./internal/dist -fuzz=FuzzCoordinatorRequests.
func FuzzCoordinatorRequests(f *testing.F) {
	units, err := testSpec().Resolved().Expand()
	if err != nil {
		f.Fatal(err)
	}
	m := sweep.Metrics{Makespan: 42}
	for _, v := range []any{
		joinRequest{Name: "a"},
		leaseRequest{WorkerID: "w1", Max: 2},
		leaseRequest{WorkerID: "ghost", Max: 1},
		completeRequest{WorkerID: "w1", Index: 0, ID: units[0].ID, Metrics: &m},
		completeRequest{WorkerID: "w1", Index: 1, ID: units[1].ID, Error: "boom"},
		completeRequest{WorkerID: "w1", Index: 0, ID: "wrong", Metrics: &m},
	} {
		body, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, false)
	}
	// Unit indexes just outside the grid, on both sides.
	f.Add([]byte(`{"worker_id":"w1","index":-1,"id":"x","error":"e"}`), false)
	f.Add([]byte(fmt.Sprintf(`{"worker_id":"w1","index":%d,"id":"x","error":"e"}`, len(units))), false)
	f.Add([]byte(`{"name":"a"}`), true)

	f.Fuzz(func(t *testing.T, body []byte, get bool) {
		// A fuzzed lease that finds nothing leasable is held for the poll
		// interval; keep that to a millisecond per iteration.
		c, err := NewCoordinator(testSpec(), Options{PollInterval: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		h := c.Handler()
		join(t, h, "w")
		postAs(t, h, pathLease, leaseRequest{WorkerID: "w1", Max: 2}, &leaseResponse{})

		method := http.MethodPost
		if get {
			method = http.MethodGet
		}
		for _, path := range []string{pathJoin, pathLease, pathComplete, pathComplete} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusForbidden, http.StatusMethodNotAllowed:
			default:
				t.Fatalf("%s %s %q answered %d: %s", method, path, body, rec.Code, rec.Body.String())
			}
		}
		if s := c.Summary(); s.Completed > s.Units {
			t.Fatalf("summary counts %d completed of %d units", s.Completed, s.Units)
		}
	})
}
