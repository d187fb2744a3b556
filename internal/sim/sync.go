package sim

// Semaphore is a counting semaphore of unit permits with FIFO fairness:
// waiters acquire in arrival order. It models bounded resources such as a
// condor schedd's shadow.
type Semaphore struct {
	avail int
	q     ring[func()] // the continuations of waiting AcquireThens
	env   *Env         // the waiters' run queue
}

// NewSemaphore returns a semaphore with n permits available.
func NewSemaphore(n int) *Semaphore {
	if n < 0 {
		panic("sim: negative semaphore capacity")
	}
	return &Semaphore{avail: n}
}

// AcquireThen takes a permit and runs fn: at once when a permit is free
// and no earlier waiter is queued, and otherwise from env's run queue when
// a Release hands it the permit, in arrival order with the other waiters.
// A process acquires by passing its resume and parking in Await.
func (s *Semaphore) AcquireThen(env *Env, fn func()) {
	if s.tryAcquire() {
		fn()
		return
	}
	s.env = env
	s.q.push(fn)
}

// tryAcquire takes a permit if one is free and no earlier waiter is
// queued, and reports whether it succeeded.
func (s *Semaphore) tryAcquire() bool {
	if s.q.n == 0 && s.avail > 0 {
		s.avail--
		return true
	}
	return false
}

// Release returns a permit. If a waiter is queued the permit passes
// straight to the longest one, whose continuation joins the back of the
// run queue.
func (s *Semaphore) Release() {
	if fn, ok := s.q.pop(); ok {
		s.env.Defer(fn)
		return
	}
	s.avail++
}

// WaitGroup mirrors sync.WaitGroup for simulation processes.
type WaitGroup struct {
	env     *Env
	count   int
	waiters []func() // the resumes of blocked Waits
}

// NewWaitGroup returns an empty wait group.
func NewWaitGroup(env *Env) *WaitGroup {
	return &WaitGroup{env: env}
}

// Add adds delta to the counter. Driving the counter negative panics.
func (wg *WaitGroup) Add(delta int) {
	wg.count += delta
	if wg.count < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if wg.count == 0 {
		for _, resume := range wg.waiters {
			resume()
		}
		clear(wg.waiters)
		wg.waiters = wg.waiters[:0]
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks the calling process until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.count == 0 {
		return
	}
	wg.waiters = append(wg.waiters, p.resume)
	p.park(stateWaiting)
}

// Signal is a broadcast-only condition variable: continuations wait with
// Then, and every Broadcast wakes all current waiters, each on a run-queue
// entry of its own. simnet's partition heal is its user. The zero Signal
// is ready to use.
type Signal struct {
	waiters []func() // continuations, in arrival order
	env     *Env     // the waiters' run queue
}

// Then waits for the next Broadcast: fn runs from env's run queue, in
// arrival order with the other waiters. A waiter that must keep waiting
// registers again.
func (s *Signal) Then(env *Env, fn func()) {
	s.env = env
	s.waiters = append(s.waiters, fn)
}

// Broadcast enqueues every current waiter in arrival order. The waiter
// slice is kept for the next cycle, so a steady wait/broadcast loop does
// not allocate: a wake only enqueues, and no waiter can run before the
// slice is cleared.
func (s *Signal) Broadcast() {
	for _, w := range s.waiters {
		s.env.Defer(w)
	}
	clear(s.waiters)
	s.waiters = s.waiters[:0]
}
