package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"addict/internal/pool"
)

// The one retry schedule: pool.Backoff from retryBase, doubling per
// attempt, capped at retryCap.
const (
	retryBase = 200 * time.Millisecond
	retryCap  = 5 * time.Second
)

// BusyError reports a 429 from an admission limiter: the server is at its
// concurrent-run capacity. RetryAfter is the server's hint, floored at one
// second — even when the header is missing or unparseable — so a caller
// that sleeps for RetryAfter before retrying can never spin in a hot loop
// against a server that just declared itself overloaded.
type BusyError struct {
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("server busy (retry after %s)", e.RetryAfter)
}

// StatusError reports any other non-2xx reply, with the server's error
// text when the body carried one.
type StatusError struct {
	Code    int
	Message string
}

func (e *StatusError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("%s (HTTP %d)", e.Message, e.Code)
	}
	return fmt.Sprintf("HTTP %d", e.Code)
}

// Transport sends requests under the one retry policy: a transport
// failure (no reply arrived: connection refused, reset before the status
// line) is re-sent up to Retries times on the backoff schedule, and every
// HTTP reply is final — 2xx is returned, anything else becomes a
// *BusyError (429) or *StatusError. The zero value sends once through
// http.DefaultClient. Safe for concurrent use.
type Transport struct {
	HTTP    *http.Client // nil = http.DefaultClient
	Retries int
}

// Do sends one request and returns its 2xx response undrained; the caller
// owns Body.Close. Bodies are byte slices, so every attempt replays the
// same bytes. The caller's context ending is final, during a request or a
// backoff wait alike.
func (t Transport) Do(ctx context.Context, method, url string, body []byte) (*http.Response, error) {
	hc := t.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	var lastErr error
	for attempt := 0; attempt <= t.Retries; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(pool.Backoff(attempt, retryBase, retryCap)):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = err
			continue
		}
		if resp.StatusCode < 200 || resp.StatusCode > 299 {
			return nil, errFromResponse(resp)
		}
		return resp, nil
	}
	return nil, lastErr
}

// GetJSON GETs url and decodes the JSON reply into out.
func (t Transport) GetJSON(ctx context.Context, url string, out any) error {
	return t.roundTrip(ctx, http.MethodGet, url, nil, out)
}

// PostJSON POSTs in as JSON to url and decodes the JSON reply into out.
func (t Transport) PostJSON(ctx context.Context, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return t.roundTrip(ctx, http.MethodPost, url, body, out)
}

func (t Transport) roundTrip(ctx context.Context, method, url string, body []byte, out any) error {
	resp, err := t.Do(ctx, method, url, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// errFromResponse maps a non-2xx reply to a typed error, draining the body.
func errFromResponse(resp *http.Response) error {
	defer resp.Body.Close()
	var body struct {
		Error string `json:"error"`
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	_ = json.Unmarshal(data, &body)
	if resp.StatusCode == http.StatusTooManyRequests {
		return &BusyError{RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())}
	}
	return &StatusError{Code: resp.StatusCode, Message: body.Error}
}

// parseRetryAfter interprets a 429's Retry-After header as a backoff
// duration. Both RFC 9110 forms are accepted — delta-seconds and HTTP-date
// — and every other outcome (missing header, garbage, negative seconds, a
// date already past) is floored at one second: a zero backoff turns any
// sleep-and-retry loop around BusyError into a hot loop hammering a server
// that just said it is overloaded.
func parseRetryAfter(h string, now time.Time) time.Duration {
	const floor = time.Second
	h = strings.TrimSpace(h)
	if secs, err := strconv.Atoi(h); err == nil {
		if d := time.Duration(secs) * time.Second; d > floor {
			return d
		}
		return floor
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := t.Sub(now); d > floor {
			return d
		}
		return floor
	}
	return floor
}
