package wire

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// failingTransport fails every round trip before a reply arrives — the
// transport-failure class the retry policy re-sends.
type failingTransport struct {
	calls  atomic.Int32
	onCall func(n int32)
}

func (f *failingTransport) RoundTrip(*http.Request) (*http.Response, error) {
	n := f.calls.Add(1)
	if f.onCall != nil {
		f.onCall(n)
	}
	return nil, errors.New("connection refused")
}

// TestTransportRetryPolicy locks the one retry policy: transport failures
// are re-sent exactly Retries times, and every HTTP reply — 4xx and 5xx
// alike — is final after one request.
func TestTransportRetryPolicy(t *testing.T) {
	t.Run("transport failures", func(t *testing.T) {
		for _, retries := range []int{0, 1, 2} {
			ft := &failingTransport{}
			tr := Transport{HTTP: &http.Client{Transport: ft}, Retries: retries}
			err := tr.GetJSON(context.Background(), "http://wire.invalid/x", new(struct{}))
			if err == nil || !strings.Contains(err.Error(), "connection refused") {
				t.Errorf("retries=%d: err = %v, want the transport failure", retries, err)
			}
			if got := ft.calls.Load(); got != int32(retries+1) {
				t.Errorf("retries=%d: %d requests, want %d", retries, got, retries+1)
			}
		}
	})

	for _, code := range []int{400, 403, 500, 503} {
		t.Run(http.StatusText(code), func(t *testing.T) {
			var hits atomic.Int32
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				WriteError(w, code, "nope")
			}))
			defer srv.Close()
			err := Transport{Retries: 3}.PostJSON(context.Background(), srv.URL, struct{}{}, new(struct{}))
			var se *StatusError
			if !errors.As(err, &se) || se.Code != code || se.Message != "nope" {
				t.Fatalf("err = %v (%T), want *StatusError{%d, nope}", err, err, code)
			}
			if got := hits.Load(); got != 1 {
				t.Errorf("%d requests for HTTP %d, want exactly 1", got, code)
			}
		})
	}

	t.Run("busy", func(t *testing.T) {
		var hits atomic.Int32
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			w.Header().Set("Retry-After", "0")
			WriteError(w, http.StatusTooManyRequests, "at capacity")
		}))
		defer srv.Close()
		err := Transport{Retries: 3}.GetJSON(context.Background(), srv.URL, new(struct{}))
		var be *BusyError
		if !errors.As(err, &be) || be.RetryAfter < time.Second {
			t.Fatalf("err = %v (%T), want *BusyError with RetryAfter >= 1s", err, err)
		}
		if got := hits.Load(); got != 1 {
			t.Errorf("%d requests for a 429, want exactly 1", got)
		}
	})

	t.Run("cancel during backoff", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// The first attempt fails at once; the cancel lands inside the
		// first backoff wait, long before the ten-retry schedule ends.
		ft := &failingTransport{onCall: func(n int32) {
			if n == 1 {
				time.AfterFunc(20*time.Millisecond, cancel)
			}
		}}
		tr := Transport{HTTP: &http.Client{Transport: ft}, Retries: 10}
		start := time.Now()
		err := tr.GetJSON(ctx, "http://wire.invalid/x", new(struct{}))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if got := ft.calls.Load(); got != 1 {
			t.Errorf("%d requests, want 1 (cancelled in the first backoff)", got)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("cancelled transport returned after %v", elapsed)
		}
	})
}

// TestDecodeDiscipline: unknown fields, oversized bodies, and malformed
// JSON all answer 400 with the one error body.
func TestDecodeDiscipline(t *testing.T) {
	cases := map[string]string{
		"unknown field": `{"name":"a","extra":1}`,
		"oversized":     `{"name":"` + strings.Repeat("x", maxBody) + `"}`,
		"malformed":     `{"name":`,
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			var v struct {
				Name string `json:"name"`
			}
			if Decode(rec, httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body)), &v) {
				t.Fatal("Decode accepted the body")
			}
			var reply struct {
				Error string `json:"error"`
			}
			if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &reply) != nil ||
				!strings.HasPrefix(reply.Error, "bad request body: ") {
				t.Errorf("reply = %d %q, want 400 with a JSON error body", rec.Code, rec.Body.String())
			}
		})
	}
}

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name   string
		header string
		want   time.Duration
	}{
		{"missing", "", time.Second},
		{"garbage", "soon", time.Second},
		{"zero seconds", "0", time.Second},
		{"negative seconds", "-5", time.Second},
		{"one second", "1", time.Second},
		{"delta seconds", "7", 7 * time.Second},
		{"padded delta", "  30  ", 30 * time.Second},
		{"fractional is not delta-seconds", "2.5", time.Second},
		{"http date ahead", now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{"http date past", now.Add(-time.Hour).Format(http.TimeFormat), time.Second},
		{"http date now", now.Format(http.TimeFormat), time.Second},
		{"rfc850 date ahead", now.Add(2 * time.Minute).Format("Monday, 02-Jan-06 15:04:05 GMT"), 2 * time.Minute},
		{"malformed date", "Mon, 99 Xxx 2026 12:00:00 GMT", time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := parseRetryAfter(tc.header, now); got != tc.want {
				t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.header, got, tc.want)
			}
		})
	}
}

// TestStalledHeaderDisconnected: a client that sends part of a request
// header and then stalls is disconnected once ReadHeaderTimeout expires, so
// it cannot hold a connection (or ever reach a handler) indefinitely. The
// two services check the same bound end to end on the servers they build.
func TestStalledHeaderDisconnected(t *testing.T) {
	t.Parallel()
	srv := NewServer(context.Background(), http.NotFoundHandler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /v1/schedule HTTP/1.1\r\nHost: stall\r\nContent-Ty"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(ReadHeaderTimeout + 5*time.Second))
	_, err = io.Copy(io.Discard, conn) // returns at EOF: the server closed
	elapsed := time.Since(start)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("stalled connection still open after %v", elapsed)
	}
	if elapsed < ReadHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the %v header timeout could fire", elapsed, ReadHeaderTimeout)
	}
}
