// Package sim provides a deterministic discrete-event simulation kernel.
//
// An Env owns a virtual clock, an event queue and a run queue. Exactly one
// thing runs at a time: the next run-queue entry or, when the run queue is
// empty, the next pending event. Every run-queue entry and every event
// action is a plain func(), a continuation, and every wait has one shape:
// it takes the continuation to run when the wait ends. Env.Delay waits on
// the clock, Future.Then on a value, Semaphore.AcquireThen on a permit and
// Signal.Then on a broadcast.
//
// A process, spawned with Env.Go, is ordinary straight-line Go in a
// func(*Proc). It waits by handing one of those waits its resume, a
// continuation bound once per process (Proc.Resumer), and parking in
// Proc.Await. The kernel's blocking waits (Sleep, Future.Get and
// WaitGroup.Wait) queue the same resume and park the same way; none has a
// timeout. A control loop is no process: a Chan is an
// unbounded queue drained by one handler, and its sends never block.
//
// Each process is a stdlib coroutine (iter.Pull): the run loop resumes it,
// and it switches straight back when it parks. Shared state needs no
// locking: the switches form a happens-before chain over all model state.
// Because scheduling is strictly sequential and all randomness is drawn
// from a seeded generator, a run is bit-for-bit reproducible for a given
// seed.
package sim

import "time"

// Env is a discrete-event simulation environment: a virtual clock, an event
// queue, and a run queue of continuations. Create one with
// NewEnv and drive it with Run, RunUntil, or RunFor. An Env must be driven
// from a single goroutine that is not itself a simulation process.
type Env struct {
	now    time.Duration
	events eventQueue // every pending event, exact (at, seq) order
	free   []*event   // recycled event structs; steady-state After is 0-alloc
	// ncancel counts cancelled events still in the heap; the heap-top
	// drop and compaction both keep it exact, so the compaction trigger
	// never fires over an almost-clean queue.
	ncancel  int
	ready    ring[func()]
	procPool []*Proc // idle processes, coroutines suspended, for Go
	seq      uint64
	alive    int
	nextID   int
	rng      *RNG
	tracer   any // see SetTracer
	stats    Stats
}

// Stats counts the kernel's work in a run. The counts are deterministic:
// host noise cannot move them.
type Stats struct {
	Events        int // events fired (cancelled ones are not counted)
	Coroutines    int // coroutines created; pooled reuse is not counted
	Resumes       int // switches into a process
	Continuations int // other entries run from the run queue
	Compactions   int // eager sweeps of cancelled events
}

// NewEnv returns a fresh simulation environment whose random source is
// seeded with seed. Two environments with the same seed and the same model
// code execute identically.
func NewEnv(seed uint64) *Env {
	return &Env{rng: NewRNG(seed)}
}

// Now returns the current virtual time, measured from the start of the
// simulation.
func (e *Env) Now() time.Duration { return e.now }

// Rand returns the environment's deterministic random source.
func (e *Env) Rand() *RNG { return e.rng }

// Alive reports the number of processes that have been spawned and have not
// yet returned. After Run it counts processes that are blocked forever
// (a modelling bug) or parked on primitives nobody will signal.
func (e *Env) Alive() int { return e.alive }

// SetTracer installs the environment's span tracer; nil removes it. The
// kernel only stores the value: package trace owns its type, and every
// substrate finds it through trace.FromEnv, so an untraced run pays one
// nil check per would-be span.
func (e *Env) SetTracer(t any) { e.tracer = t }

// Tracer returns the value installed by SetTracer, or nil.
func (e *Env) Tracer() any { return e.tracer }

// Stats returns the kernel's work counters so far.
func (e *Env) Stats() Stats {
	s := e.stats
	s.Continuations -= s.Resumes // step counts a switch into a process too
	return s
}

// Go spawns a new process executing fn and schedules it to run at the
// current virtual time. The name is used in traces and diagnostics.
// Process structs and their suspended coroutines are recycled from
// completed processes; a *Proc handle is only meaningful while its process
// is alive.
func (e *Env) Go(name string, fn func(*Proc)) *Proc {
	var p *Proc
	if n := len(e.procPool); n > 0 {
		p = e.procPool[n-1]
		e.procPool[n-1] = nil
		e.procPool = e.procPool[:n-1]
	} else {
		p = newProc(e)
	}
	p.fn = fn
	p.id = e.nextID
	p.name = name
	p.state = stateReady
	e.nextID++
	e.alive++
	e.ready.push(p.enter)
	return p
}

// Defer appends the continuation fn to the run queue: it runs in scheduler
// context at the slot where a process spawned now would first run. Like an
// event callback it must not block on simulation primitives.
func (e *Env) Defer(fn func()) {
	e.ready.push(fn)
}

// DeferFirst is Defer for a continuation that must run next: it enters the
// run queue ahead of every ready entry, where a process's resume puts it.
func (e *Env) DeferFirst(fn func()) {
	e.ready.pushFront(fn)
}

// Delay is Proc.Sleep for a continuation: fn runs in an event callback d
// from now, or, for a non-positive d, from the back of the run queue, where
// a sleeping process would yield.
func (e *Env) Delay(d time.Duration, fn func()) {
	if d <= 0 {
		e.Defer(fn)
		return
	}
	e.After(d, fn)
}

// newEvent takes an event struct off the free list (or allocates one) and
// stamps it with the next sequence number.
func (e *Env) newEvent(at time.Duration, fn func()) *event {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at = at
	ev.seq = e.seq
	ev.fn = fn
	e.seq++
	return ev
}

// release recycles an event struct that left the queue (fired or collected
// after cancellation). Bumping gen first invalidates every outstanding
// Timer handle to it. Recycling never reorders equal-time events: order is
// decided by (at, seq) alone and seq still increases monotonically across
// recycled structs.
func (e *Env) release(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.cancelled = false
	e.free = append(e.free, ev)
}

// noteCancelled is called by Timer.Stop. Cancelled events normally leave
// the queue lazily — discarded when they surface at the heap top, which
// decrements ncancel so lazily-drained cancels never count toward the next
// trigger. When they pile up past a quarter of the queue we compact eagerly
// so a cancellation-heavy workload (retry timers, timeouts that rarely
// fire) cannot bloat the heap.
func (e *Env) noteCancelled() {
	e.ncancel++
	if e.ncancel >= 64 && e.ncancel*4 >= len(e.events) {
		e.compactEvents()
	}
}

// compactEvents filters cancelled events out of the heap and restores the
// heap property. Pop order of the survivors is unchanged (see
// eventQueue.heapify).
func (e *Env) compactEvents() {
	e.stats.Compactions++
	kept := e.events[:0]
	for _, ev := range e.events {
		if ev.cancelled {
			e.ncancel--
			e.release(ev)
			continue
		}
		kept = append(kept, ev)
	}
	clear(e.events[len(kept):])
	e.events = kept
	e.events.heapify()
}

// At schedules fn to run in scheduler context at absolute virtual time t
// (clamped to now). The callback must not block on simulation primitives; it
// may wake processes, complete futures, and schedule further events.
func (e *Env) At(t time.Duration, fn func()) Timer {
	if t < e.now {
		t = e.now
	}
	ev := e.newEvent(t, fn)
	e.events.push(ev)
	return Timer{env: e, ev: ev, gen: ev.gen}
}

// After schedules fn to run in scheduler context d from now. See At.
func (e *Env) After(d time.Duration, fn func()) Timer {
	return e.At(e.now+d, fn)
}

// Run drives the simulation until no process is runnable and no event is
// pending, and returns the final virtual time. Processes still alive at that
// point are blocked forever; Alive reports how many.
//
// A panic in a process is re-raised here, in the driver, with the same
// value. The Env is then in an undefined state and must not be driven
// again.
func (e *Env) Run() time.Duration {
	return e.RunUntil(-1)
}

// RunUntil drives the simulation until virtual time would pass t or the
// simulation completes, whichever comes first. Events at exactly t still
// fire. It returns the final virtual time. Process panics are re-raised as
// in Run.
//
// On return it stops the idle coroutines when no live process remains or
// nothing is left to dispatch: they would otherwise be all that keeps the
// Env reachable. A run stopped at t with live processes keeps them, so a
// caller that advances the clock in slices keeps spawning without
// allocating.
func (e *Env) RunUntil(t time.Duration) time.Duration {
	for e.step(t) {
	}
	if e.alive == 0 || len(e.events) == 0 {
		e.releaseIdle()
	}
	return e.now
}

// RunFor drives the simulation for d of virtual time from now. See RunUntil.
func (e *Env) RunFor(d time.Duration) time.Duration {
	return e.RunUntil(e.now + d)
}

// step executes one scheduling decision: run the next ready entry (a
// continuation, or the switch that runs a process to its next park), or
// fire the next event. horizon < 0 means no limit. It returns false when
// there is nothing left to do within the horizon.
//
// Ready entries run first, then events in strict (at, seq) order, one per
// step, so a woken process runs before the next same-timestamp event. An
// event fires only on an empty run queue, which is why a continuation run
// in the callback keeps the order a woken process would have had, and why
// a process resumed from the callback runs next whether it enters the run
// queue at the front or the back.
// Cancelled events are dropped as they surface at the heap top.
func (e *Env) step(horizon time.Duration) bool {
	if fn, ok := e.ready.pop(); ok {
		e.stats.Continuations++
		fn()
		return true
	}
	for len(e.events) > 0 {
		ev := e.events[0]
		if ev.cancelled {
			e.events.popMin()
			e.ncancel--
			e.release(ev)
			continue
		}
		if horizon >= 0 && ev.at > horizon {
			e.now = horizon
			return false
		}
		e.events.popMin()
		e.now = ev.at
		e.stats.Events++
		fn := ev.fn
		e.release(ev)
		fn()
		return true
	}
	return false
}

// ring is a head-indexed growable FIFO with power-of-two capacity: the
// run queue, a Chan's buffer and a Semaphore's wait queue. Dequeue is O(1)
// where a head-shifted slice is O(n) or leaks its front, and a ring that
// has grown to its working set never allocates again.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pushFront makes v the head.
func (r *ring[T]) pushFront(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.head = (r.head - 1) & (len(r.buf) - 1)
	r.buf[r.head] = v
	r.n++
}

// pop removes and returns the head; ok is false when the ring is empty.
func (r *ring[T]) pop() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	var zero T
	v, r.buf[r.head] = r.buf[r.head], zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v, true
}

func (r *ring[T]) grow() {
	newCap := 16
	if len(r.buf) > 0 {
		newCap = len(r.buf) * 2
	}
	buf := make([]T, newCap)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}
