package resilience

import "time"

// BreakerPolicy configures a circuit breaker. The zero value (Failures 0)
// disables the breaker entirely.
type BreakerPolicy struct {
	// Failures is the number of consecutive failures that trips the
	// breaker from closed to open. 0 disables the breaker.
	Failures int
	// OpenFor is how long the breaker stays open before letting probe
	// traffic through (half-open).
	OpenFor time.Duration
	// HalfOpenProbes is how many in-flight probe requests the half-open
	// state admits at once (0 means 1).
	HalfOpenProbes int
}

// enabled reports whether the policy configures an active breaker.
func (pol BreakerPolicy) enabled() bool { return pol.Failures > 0 }

// BreakerState is the circuit breaker's state.
type BreakerState int

const (
	// BreakerClosed passes all traffic, counting consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen fast-fails all traffic until the open window elapses.
	BreakerOpen
	// BreakerHalfOpen admits a bounded number of probes; one success
	// closes the breaker, one failure reopens it.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker is a deterministic circuit breaker: state transitions depend
// only on the success/failure feed and the caller-supplied clock readings
// (virtual time in the simulation, wall time on the live path), never on
// internal time sources. A nil *Breaker admits everything.
type Breaker struct {
	pol BreakerPolicy

	state       BreakerState
	consecFails int
	openUntil   time.Duration
	probes      int

	trips     int
	fastFails int
}

// NewBreaker returns a closed breaker under pol, or nil when the policy is
// disabled — call sites need no separate enabled check.
func NewBreaker(pol BreakerPolicy) *Breaker {
	if !pol.enabled() {
		return nil
	}
	if pol.HalfOpenProbes <= 0 {
		pol.HalfOpenProbes = 1
	}
	return &Breaker{pol: pol}
}

// State returns the breaker's state as of now (resolving an elapsed open
// window to half-open).
func (b *Breaker) State(now time.Duration) BreakerState {
	if b == nil {
		return BreakerClosed
	}
	if b.state == BreakerOpen && now >= b.openUntil {
		return BreakerHalfOpen
	}
	return b.state
}

// Allow reports whether a request may proceed at now, claiming a probe
// slot when half-open. A denied request must not be forwarded; the caller
// should fail it with ErrCircuitOpen. A nil breaker always allows.
func (b *Breaker) Allow(now time.Duration) bool {
	if b == nil {
		return true
	}
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now < b.openUntil {
			b.fastFails++
			return false
		}
		b.state = BreakerHalfOpen
		b.probes = 0
		fallthrough
	default: // half-open
		if b.probes < b.pol.HalfOpenProbes {
			b.probes++
			return true
		}
		b.fastFails++
		return false
	}
}

// OnSuccess records a successful request. A half-open probe success closes
// the breaker and resets the failure count.
func (b *Breaker) OnSuccess(now time.Duration) {
	if b == nil {
		return
	}
	switch b.state {
	case BreakerHalfOpen:
		b.state = BreakerClosed
		b.consecFails = 0
		b.probes = 0
	case BreakerClosed:
		b.consecFails = 0
	}
}

// OnFailure records a failed request. Enough consecutive failures trip a
// closed breaker; any half-open probe failure reopens it for another full
// window.
func (b *Breaker) OnFailure(now time.Duration) {
	if b == nil {
		return
	}
	switch b.state {
	case BreakerHalfOpen:
		b.trip(now)
	case BreakerClosed:
		b.consecFails++
		if b.consecFails >= b.pol.Failures {
			b.trip(now)
		}
	}
}

// OnDrop returns a claimed probe slot without recording a verdict, for
// requests that terminated for reasons unrelated to backend health —
// admission sheds, deadline expiry before execution, application-level
// failures. Without this a shed half-open probe would wedge the breaker,
// denying traffic forever with no probe outstanding.
func (b *Breaker) OnDrop(now time.Duration) {
	if b == nil {
		return
	}
	if b.state == BreakerHalfOpen && b.probes > 0 {
		b.probes--
	}
}

func (b *Breaker) trip(now time.Duration) {
	b.state = BreakerOpen
	b.openUntil = now + b.pol.OpenFor
	b.consecFails = 0
	b.probes = 0
	b.trips++
}

// Trips returns how many times the breaker has opened.
func (b *Breaker) Trips() int {
	if b == nil {
		return 0
	}
	return b.trips
}

// FastFails returns how many requests were denied without being forwarded.
func (b *Breaker) FastFails() int {
	if b == nil {
		return 0
	}
	return b.fastFails
}
