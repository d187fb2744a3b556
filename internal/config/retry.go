package config

import (
	"math"
	"time"

	"repro/internal/sim"
)

// RetryPolicy is the unified retry/backoff policy adopted by every layer
// that re-attempts failed operations: condor job resubmission through the
// wms engine, knative invocation, and registry image pulls. Backoff is
// exponential with deterministic jitter drawn from the simulation RNG, so
// retry timing is reproducible under a fixed seed.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first. Zero
	// and one both mean "no retries".
	MaxAttempts int
	// BaseDelay is the backoff before the first retry.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth. Zero means uncapped.
	MaxDelay time.Duration
	// Multiplier is the exponential growth factor between consecutive
	// retries. Values ≤ 1 mean constant backoff at BaseDelay.
	Multiplier float64
	// JitterFrac spreads each delay multiplicatively by U[1−f, 1+f),
	// decorrelating retry storms across concurrent clients.
	JitterFrac float64
}

// Attempts returns the effective total-attempt budget (at least 1).
func (rp RetryPolicy) Attempts() int {
	if rp.MaxAttempts < 1 {
		return 1
	}
	return rp.MaxAttempts
}

// maxBackoff bounds an uncapped exponential schedule (MaxDelay 0) so the
// float64 delay can never overflow time.Duration, even after jitter
// inflates it by up to 2×. MaxInt64/4 nanoseconds ≈ 73 years — any real
// schedule hits its MaxDelay or attempt budget long before this matters.
const maxBackoff = float64(math.MaxInt64 / 4)

// Backoff returns the delay to wait after the attempt-th failed try
// (attempt counts from 1), with deterministic jitter drawn from rng. A nil
// rng yields the unjittered delay.
func (rp RetryPolicy) Backoff(attempt int, rng *sim.RNG) time.Duration {
	if rp.BaseDelay <= 0 {
		return 0
	}
	cap := maxBackoff
	if rp.MaxDelay > 0 && float64(rp.MaxDelay) < cap {
		cap = float64(rp.MaxDelay)
	}
	d := float64(rp.BaseDelay)
	if rp.Multiplier > 1 {
		for i := 1; i < attempt; i++ {
			d *= rp.Multiplier
			if d >= cap {
				break
			}
		}
	}
	if d > cap {
		d = cap
	}
	out := time.Duration(d)
	if rng != nil && rp.JitterFrac > 0 {
		out = rng.Jitter(out, rp.JitterFrac)
	}
	return out
}
