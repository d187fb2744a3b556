package resilience

import (
	"errors"
	"testing"
	"time"
)

func TestRetryBudgetNilGrantsEverything(t *testing.T) {
	var b *RetryBudget
	for i := 0; i < 100; i++ {
		if !b.TryRetry() {
			t.Fatal("nil budget denied a retry")
		}
	}
	b.OnSuccess() // must not panic
}

func TestRetryBudgetBurstThenRatio(t *testing.T) {
	b := NewRetryBudget(0.1, 3)
	// The initial burst covers exactly 3 retries.
	for i := 0; i < 3; i++ {
		if !b.TryRetry() {
			t.Fatalf("burst retry %d denied", i)
		}
	}
	if b.TryRetry() {
		t.Fatal("retry granted on empty bucket")
	}
	// 10 successes earn exactly one more token.
	for i := 0; i < 10; i++ {
		b.OnSuccess()
	}
	if !b.TryRetry() {
		t.Fatal("earned token not granted")
	}
	if b.TryRetry() {
		t.Fatal("second retry granted off one earned token")
	}
}

func TestRetryBudgetCapsAtBurst(t *testing.T) {
	b := NewRetryBudget(1, 2)
	for i := 0; i < 100; i++ {
		b.OnSuccess()
	}
	if got := b.tokens; got != 2 {
		t.Fatalf("tokens = %v, want capped at 2", got)
	}
}

func TestRetryBudgetAmplificationBound(t *testing.T) {
	// Under sustained traffic the granted-retry fraction must stay near
	// the ratio: N successes can never fund more than ratio*N + burst
	// retries.
	b := NewRetryBudget(0.2, 5)
	granted := 0
	const successes = 1000
	for i := 0; i < successes; i++ {
		b.OnSuccess()
		// An adversarial client tries to retry after every success.
		if b.TryRetry() {
			granted++
		}
	}
	if max := int(0.2*successes) + 5; granted > max {
		t.Fatalf("granted %d retries, budget bound is %d", granted, max)
	}
}

func TestBreakerDisabledPolicy(t *testing.T) {
	if NewBreaker(BreakerPolicy{}) != nil {
		t.Fatal("zero policy should return a nil breaker")
	}
	var b *Breaker
	if !b.Allow(0) {
		t.Fatal("nil breaker denied a request")
	}
	b.OnSuccess(0)
	b.OnFailure(0)
	if b.State(0) != BreakerClosed {
		t.Fatal("nil breaker should read closed")
	}
}

func TestBreakerStateMachine(t *testing.T) {
	pol := BreakerPolicy{Failures: 3, OpenFor: 10 * time.Second, HalfOpenProbes: 1}
	b := NewBreaker(pol)
	now := time.Duration(0)

	// Failures below the threshold keep it closed; a success resets.
	b.OnFailure(now)
	b.OnFailure(now)
	b.OnSuccess(now)
	b.OnFailure(now)
	b.OnFailure(now)
	if b.State(now) != BreakerClosed {
		t.Fatalf("state = %v, want closed", b.State(now))
	}
	// Third consecutive failure trips it.
	b.OnFailure(now)
	if b.State(now) != BreakerOpen {
		t.Fatalf("state = %v, want open", b.State(now))
	}
	if b.Allow(now) {
		t.Fatal("open breaker allowed a request")
	}
	if b.Allow(now + 9*time.Second) {
		t.Fatal("breaker allowed before the open window elapsed")
	}

	// The open window elapses: half-open admits exactly one probe.
	now += 10 * time.Second
	if b.State(now) != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State(now))
	}
	if !b.Allow(now) {
		t.Fatal("half-open breaker denied the probe")
	}
	if b.Allow(now) {
		t.Fatal("half-open breaker allowed a second concurrent probe")
	}

	// Probe failure reopens for a full window.
	b.OnFailure(now)
	if b.State(now) != BreakerOpen {
		t.Fatalf("state after probe failure = %v, want open", b.State(now))
	}
	if b.Allow(now + 5*time.Second) {
		t.Fatal("reopened breaker allowed a request mid-window")
	}

	// Next window: probe succeeds, breaker closes and needs a fresh
	// failure streak to trip again.
	now += 10 * time.Second
	if !b.Allow(now) {
		t.Fatal("half-open breaker denied the second probe")
	}
	b.OnSuccess(now)
	if b.State(now) != BreakerClosed {
		t.Fatalf("state after probe success = %v, want closed", b.State(now))
	}
	b.OnFailure(now)
	b.OnFailure(now)
	if b.State(now) != BreakerClosed {
		t.Fatal("stale failure count survived the close")
	}
	if b.Trips() != 2 {
		t.Fatalf("trips = %d, want 2", b.Trips())
	}
	if b.FastFails() == 0 {
		t.Fatal("fast-fail counter never advanced")
	}
}

func TestBreakerOnDropReleasesProbe(t *testing.T) {
	b := NewBreaker(BreakerPolicy{Failures: 1, OpenFor: time.Second, HalfOpenProbes: 1})
	b.OnFailure(0)
	now := time.Second
	if !b.Allow(now) {
		t.Fatal("half-open breaker denied the probe")
	}
	// The probe is shed before reaching the backend: no verdict. Without
	// OnDrop the breaker would be wedged half-open with zero probes in
	// flight.
	b.OnDrop(now)
	if !b.Allow(now) {
		t.Fatal("probe slot not returned after OnDrop")
	}
	b.OnSuccess(now)
	if b.State(now) != BreakerClosed {
		t.Fatalf("state = %v, want closed", b.State(now))
	}
	// OnDrop outside half-open is a no-op and nil-safe.
	b.OnDrop(now)
	var nilB *Breaker
	nilB.OnDrop(now)
}

func TestAdmissionBoundsAndEstimates(t *testing.T) {
	if NewAdmission(0) != nil {
		t.Fatal("capacity 0 should mean unbounded (nil)")
	}
	var unbounded *Admission
	if err := unbounded.TryEnter(time.Hour, time.Nanosecond); err != nil {
		t.Fatalf("nil admission shed: %v", err)
	}
	unbounded.Exit()

	a := NewAdmission(2)
	if err := a.TryEnter(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.TryEnter(0, 0); err != nil {
		t.Fatal(err)
	}
	// Full: third entry sheds regardless of deadline.
	if err := a.TryEnter(0, 0); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	a.Exit()
	// Room again, but the wait estimate exceeds the remaining deadline.
	if err := a.TryEnter(2*time.Second, time.Second); !errors.Is(err, ErrWouldExpire) {
		t.Fatalf("err = %v, want ErrWouldExpire", err)
	}
	// No deadline skips the estimate check.
	if err := a.TryEnter(2*time.Second, 0); err != nil {
		t.Fatalf("no-deadline entry shed: %v", err)
	}
	if a.Waiting() != 2 {
		t.Fatalf("waiting = %d, want 2", a.Waiting())
	}
	full, wait := a.Shed()
	if full != 1 || wait != 1 {
		t.Fatalf("shed = (%d, %d), want (1, 1)", full, wait)
	}
}

func TestAdmissionExitUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced Exit did not panic")
		}
	}()
	NewAdmission(1).Exit()
}

func TestDeadlineHelpers(t *testing.T) {
	if Expired(0, time.Hour) {
		t.Fatal("zero deadline must never expire")
	}
	if !Expired(time.Second, time.Second) {
		t.Fatal("deadline == now should be expired")
	}
	if Expired(2*time.Second, time.Second) {
		t.Fatal("future deadline reported expired")
	}
	if got := Remaining(0, time.Hour); got != 0 {
		t.Fatalf("Remaining with no deadline = %v, want 0", got)
	}
	if got := Remaining(3*time.Second, time.Second); got != 2*time.Second {
		t.Fatalf("Remaining = %v, want 2s", got)
	}
	if got := Remaining(time.Second, 3*time.Second); got != -2*time.Second {
		t.Fatalf("Remaining past deadline = %v, want -2s", got)
	}
}
