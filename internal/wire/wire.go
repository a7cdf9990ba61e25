// Package wire is the one way this repository speaks HTTP/JSON. Both
// services — the addict-serve daemon and the distributed-sweep coordinator
// — build their http.Server with NewServer, decode every request body with
// Decode, and answer errors with WriteError's {"error": msg} body. Both
// clients — the typed client package and the dist workers — send requests
// through Transport, which has exactly one retry policy: transport failures
// (no reply arrived) are retried on the pool.Backoff schedule, and every
// HTTP reply is final. Neither server sends a 5xx that a retry could fix:
// the coordinator's 500 means its own reply failed to encode and
// addict-serve's 500/503 are a deterministic compute error or a cancelled
// run, so a status-code retry branch would only repeat the same answer.
package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// Slow-client bounds. A client that stalls inside its request header, or
// parks an idle keep-alive connection, is disconnected instead of holding a
// goroutine and a socket indefinitely. Response writes stay unbounded:
// streamed sweeps and benches run for as long as the run takes.
// ReadHeaderTimeout is exported so each service's tests can assert the
// bound on the server it actually builds.
const (
	ReadHeaderTimeout = 5 * time.Second
	idleTimeout       = 60 * time.Second
)

// maxBody caps every decoded request body.
const maxBody = 1 << 20

// NewServer builds an http.Server around h with the slow-client bounds.
// Every request context descends from ctx, so cancelling ctx (a signal
// context, say) cancels in-flight handlers.
func NewServer(ctx context.Context, h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		BaseContext:       func(net.Listener) context.Context { return ctx },
		ReadHeaderTimeout: ReadHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// strictDecoder is the one JSON input discipline: unknown fields are an
// error, so a misspelled field never silently falls back to a default.
func strictDecoder(r io.Reader) *json.Decoder {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec
}

// Decode reads one JSON request body into v: at most 1 MiB, no unknown
// fields. On failure it answers 400 and returns false; the handler just
// returns.
func Decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := strictDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(v); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	return true
}

// Unmarshal decodes data — a spec file, say — into v under the same
// discipline as Decode, and also rejects anything after the first value.
func Unmarshal(data []byte, v any) error {
	dec := strictDecoder(bytes.NewReader(data))
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// WriteJSON answers 200 with v as one JSON line. A value that fails to
// encode answers 500 instead, before any body byte is written.
func WriteJSON(w http.ResponseWriter, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, fmt.Sprintf("encode: %v", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(b, '\n'))
}

// WriteError answers code with the one error body, {"error": msg}.
func WriteError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{msg})
}
