package pool

import "time"

// Backoff returns the exponential retry delay for a 1-based attempt count:
// base for the first retry, doubling per attempt, capped at max (and never
// below base). It is the one backoff schedule the retrying layers share —
// internal/wire's transport retries (behind both the typed client and the
// distributed workers) and the coordinator's failed-unit requeue delay —
// so "bounded retry with backoff" means the same thing everywhere.
// A max of 0 means uncapped.
func Backoff(attempt int, base, max time.Duration) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if max > 0 && d >= max {
			return max
		}
		if d <= 0 { // overflow far past any real cap
			return max
		}
	}
	if max > 0 && d > max {
		return max
	}
	return d
}
