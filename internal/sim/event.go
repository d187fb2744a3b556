package sim

import "time"

// event is a scheduled callback in the environment's event queue. Event
// structs are owned by the Env and recycled through a free list once they
// fire or their cancellation is collected; gen counts recycles so that a
// stale Timer handle can tell that the event it armed is gone.
type event struct {
	at        time.Duration
	seq       uint64 // tie-break so equal-time events fire in schedule order
	gen       uint64 // bumped every time the struct returns to the free list
	fn        func()
	cancelled bool
}

// Timer is a handle to a scheduled event that allows cancellation. It is a
// small value, not a heap object: the zero Timer is valid and Stop on it
// reports false.
type Timer struct {
	env *Env
	ev  *event
	gen uint64
}

// Stop cancels the timer. It reports whether the cancellation took effect:
// false when the timer was already stopped, already fired, or is the zero
// Timer. Fired events are recycled by the kernel (their generation moves
// on), so a handle kept after firing can never cancel an unrelated later
// event.
func (t Timer) Stop() bool {
	ev := t.ev
	if ev == nil || ev.gen != t.gen || ev.cancelled {
		return false
	}
	ev.cancelled = true
	ev.fn = nil
	t.env.noteCancelled()
	return true
}

// eventQueue is a 4-ary min-heap of events ordered by (time, sequence).
// The arity trades a slightly costlier sift-down for a much shallower tree
// and better cache behaviour than container/heap's binary layout, and the
// monomorphic methods avoid the interface dispatch and `any` boxing that
// heap.Push/heap.Pop impose on every operation.
type eventQueue []*event

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventQueue) push(ev *event) {
	*q = append(*q, ev)
	q.siftUp(len(*q) - 1)
}

// popMin removes and returns the earliest event. The caller must know the
// queue is non-empty.
func (q *eventQueue) popMin() *event {
	h := *q
	min := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	*q = h[:n]
	if n > 0 {
		h[0] = last
		q.siftDown(0)
	}
	return min
}

func (q *eventQueue) siftUp(i int) {
	h := *q
	ev := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !eventLess(ev, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

func (q *eventQueue) siftDown(i int) {
	h := *q
	n := len(h)
	ev := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for k := c + 1; k < end; k++ {
			if eventLess(h[k], h[best]) {
				best = k
			}
		}
		if !eventLess(h[best], ev) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = ev
}

// heapify restores the heap property over arbitrary contents, used after
// compaction filters out cancelled events. Rebuilding changes the heap's
// internal layout but never the pop order: (at, seq) is a strict total
// order, so the sequence of popMin results is layout-independent.
func (q *eventQueue) heapify() {
	for i := (len(*q) - 2) >> 2; i >= 0; i-- {
		q.siftDown(i)
	}
}
