package resilience

import (
	"fmt"
	"time"
)

// Admission is a bounded waiting room with shed-on-wait-estimate: the
// activator-side replacement for an unbounded request buffer. A request
// enters before queueing for capacity and exits once it holds a serving
// slot. TryEnter rejects when the room is full (ErrQueueFull) or when the
// caller's wait estimate says the request would expire before being served
// (ErrWouldExpire) — shedding at the door is what keeps queue waits, and
// therefore tail latency, bounded when offered load exceeds capacity.
//
// Admission is plain counting; the wait estimate is supplied by the caller
// (who knows its service-time model), keeping the primitive reusable. A
// nil *Admission admits everything — the unbounded seed behaviour.
type Admission struct {
	cap     int
	waiting int

	shedFull int
	shedWait int
}

// NewAdmission returns a waiting room bounded at capacity requests; a
// capacity of 0 or less returns nil (unbounded).
func NewAdmission(capacity int) *Admission {
	if capacity <= 0 {
		return nil
	}
	return &Admission{cap: capacity}
}

// TryEnter admits the request or returns the shed reason. estWait is the
// caller's estimate of the queue wait ahead of this request; remaining is
// the request's remaining deadline budget (0 = no deadline, which skips
// the wait-estimate check). On success the caller must pair with Exit once
// it acquires a serving slot (or gives up).
func (a *Admission) TryEnter(estWait, remaining time.Duration) error {
	if a == nil {
		return nil
	}
	if a.waiting >= a.cap {
		a.shedFull++
		return fmt.Errorf("%w (%d waiting)", ErrQueueFull, a.waiting)
	}
	if remaining > 0 && estWait > remaining {
		a.shedWait++
		return fmt.Errorf("%w (est %v > remaining %v)", ErrWouldExpire, estWait, remaining)
	}
	a.waiting++
	return nil
}

// Exit releases the admitted request's place in the waiting room.
func (a *Admission) Exit() {
	if a == nil {
		return
	}
	if a.waiting <= 0 {
		panic("resilience: Admission.Exit without matching TryEnter")
	}
	a.waiting--
}

// Waiting returns the number of admitted requests not yet holding a slot.
func (a *Admission) Waiting() int {
	if a == nil {
		return 0
	}
	return a.waiting
}

// Shed returns the lifetime shed counts: queue-full sheds and
// would-expire (wait-estimate) sheds.
func (a *Admission) Shed() (full, wait int) {
	if a == nil {
		return 0, 0
	}
	return a.shedFull, a.shedWait
}
