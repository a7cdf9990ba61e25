package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestBusyErrorFloor locks the hot-loop fix end to end: whatever a 429
// carries in Retry-After — nothing, garbage, or a date — the BusyError a
// caller sleeps on is never below one second.
func TestBusyErrorFloor(t *testing.T) {
	headers := []string{"", "garbage", "0", "-3"}
	for _, h := range headers {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if h != "" {
				w.Header().Set("Retry-After", h)
			}
			w.WriteHeader(http.StatusTooManyRequests)
		}))
		c := New(srv.URL, WithRetries(0))
		_, err := c.Workloads(context.Background())
		srv.Close()
		be, ok := err.(*BusyError)
		if !ok {
			t.Fatalf("header %q: err = %v (%T), want *BusyError", h, err, err)
		}
		if be.RetryAfter < time.Second {
			t.Errorf("header %q: RetryAfter = %v, below the 1s floor", h, be.RetryAfter)
		}
	}
}
