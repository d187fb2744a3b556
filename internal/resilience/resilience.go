// Package resilience provides the reusable overload-protection primitives
// every serving and retrying layer of the testbed shares: token-bucket
// retry budgets (retries capped at a fraction of successful traffic, after
// Finagle's RetryBudget), a deterministic circuit breaker driven by the
// virtual clock (closed/open/half-open), bounded admission control with
// shed-on-wait-estimate, and deadline propagation helpers.
//
// All state machines are plain counters and virtual-time comparisons — no
// wall-clock reads, no internal RNG — so a protected simulation remains
// bit-for-bit reproducible for a given seed. The same types serve the live
// (non-simulated) httpfn path by passing wall-clock readings as `now`.
//
// The zero configuration of every knob disables that protection, which is
// how the seed behaviour (unbounded activator buffer, uncapped retries) is
// preserved byte-identically when nothing is configured.
package resilience

import (
	"errors"
	"time"
)

// Overload-rejection error classes. Layers wrap these with %w so callers
// can classify sheds with errors.Is while keeping per-layer context.
var (
	// ErrQueueFull is returned by admission control when the bounded
	// waiting room is at capacity.
	ErrQueueFull = errors.New("resilience: admission queue full")
	// ErrWouldExpire is returned by admission control when the estimated
	// queue wait already exceeds the request's remaining deadline — serving
	// it would only waste capacity on a doomed request.
	ErrWouldExpire = errors.New("resilience: estimated wait exceeds deadline")
	// ErrDeadlineExceeded is returned when a request's deadline passed
	// while it was queued or being served.
	ErrDeadlineExceeded = errors.New("resilience: deadline exceeded")
	// ErrCircuitOpen is returned on fast-fail while a circuit breaker is
	// open (or half-open with all probe slots taken).
	ErrCircuitOpen = errors.New("resilience: circuit breaker open")
)

// Expired reports whether the absolute deadline has passed at now. A zero
// deadline means "none" and never expires.
func Expired(deadline, now time.Duration) bool {
	return deadline > 0 && now >= deadline
}

// Remaining returns the budget left before the absolute deadline at now,
// or 0 when deadline is zero ("none"). An expired deadline returns a
// negative remainder, so callers can distinguish "no deadline" (0) from
// "already expired" (< 0) — use Expired for the boolean question.
func Remaining(deadline, now time.Duration) time.Duration {
	if deadline <= 0 {
		return 0
	}
	return deadline - now
}
