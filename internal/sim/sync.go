package sim

// Semaphore is a counting semaphore of unit permits with FIFO fairness:
// waiters acquire in arrival order. It models bounded resources such as a
// condor schedd's shadow.
type Semaphore struct {
	avail int
	q     ring[*Proc]
}

// NewSemaphore returns a semaphore with n permits available.
func NewSemaphore(n int) *Semaphore {
	if n < 0 {
		panic("sim: negative semaphore capacity")
	}
	return &Semaphore{avail: n}
}

// Available returns the number of free permits.
func (s *Semaphore) Available() int { return s.avail }

// Acquire blocks the calling process until a permit is free and takes it.
func (s *Semaphore) Acquire(p *Proc) {
	if !s.TryAcquire() {
		s.q.push(p)
		p.park()
	}
}

// TryAcquire takes a permit if one is free and no earlier waiter is
// queued, and reports whether it succeeded.
func (s *Semaphore) TryAcquire() bool {
	if s.q.n == 0 && s.avail > 0 {
		s.avail--
		return true
	}
	return false
}

// Release returns a permit. If a process is waiting the permit passes
// straight to the longest waiter.
func (s *Semaphore) Release() {
	if p, ok := s.q.pop(); ok {
		p.wake()
		return
	}
	s.avail++
}

// WaitGroup mirrors sync.WaitGroup for simulation processes.
type WaitGroup struct {
	env     *Env
	count   int
	waiters []*Proc
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
		for _, p := range wg.waiters {
			p.wake()
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
	wg.waiters = append(wg.waiters, p)
	p.park()
}

// Gate is a single-waiter, reusable rendezvous: one process Waits, another
// party (a process or an event callback) Opens it, releasing the waiter.
// It is the allocation-free core of Future for the common case of exactly
// one waiter and no value — unlike Future it keeps no waiter list, is not
// write-once, and can be embedded by value and reused across cycles, which
// is what lets a pooled object park its owner without allocating.
type Gate struct {
	p *Proc
}

// Wait parks the calling process until Open. A Gate holds at most one
// waiter; a second Wait before Open is a modelling bug and panics.
func (g *Gate) Wait(p *Proc) {
	if g.p != nil {
		panic("sim: Gate already has a waiter")
	}
	g.p = p
	p.park()
}

// Open releases the waiting process. Opening a Gate nobody waits on is a
// modelling bug and panics.
func (g *Gate) Open() {
	p := g.p
	if p == nil {
		panic("sim: Open of a Gate with no waiter")
	}
	g.p = nil
	p.wake()
}

// OpenFirst is Open for a waiter that handed its work to a continuation
// chain: the process enters the run queue ahead of every ready entry, so it
// resumes where it would have continued had it run the chain itself.
func (g *Gate) OpenFirst() {
	p := g.p
	if p == nil {
		panic("sim: Open of a Gate with no waiter")
	}
	g.p = nil
	p.wakeFirst()
}

// Waiting reports whether a process is parked on the gate.
func (g *Gate) Waiting() bool { return g.p != nil }

// Signal is a broadcast-only condition variable: processes Wait on it,
// continuations wait with Then, and every Broadcast wakes all current
// waiters. It backs watch/notify patterns (informers, reconcile loops). The
// zero Signal is ready to use.
type Signal struct {
	waiters []sigWaiter
	env     *Env // the continuation waiters' run queue
}

// sigWaiter is a process blocked in Wait or, when p is nil, a continuation
// registered with Then.
type sigWaiter struct {
	p  *Proc
	fn func()
}

// Wait blocks the calling process until the next Broadcast.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, sigWaiter{p: p})
	p.park()
}

// Then is the continuation form of Wait: fn runs from env's run queue after
// the next Broadcast, in arrival order with the processes blocked in Wait.
// A waiter that must keep waiting registers again, as a process loops on
// Wait.
func (s *Signal) Then(env *Env, fn func()) {
	s.env = env
	s.waiters = append(s.waiters, sigWaiter{fn: fn})
}

// Broadcast enqueues every current waiter, processes and continuations
// alike, in arrival order. The waiter slice is kept for the next cycle, so
// a steady wait/broadcast loop does not allocate: a wake only enqueues, and
// no waiter can run before the slice is cleared.
func (s *Signal) Broadcast() {
	for _, w := range s.waiters {
		if w.p != nil {
			w.p.wake()
		} else {
			s.env.Defer(w.fn)
		}
	}
	clear(s.waiters)
	s.waiters = s.waiters[:0]
}

// Waiting returns the number of blocked waiters.
func (s *Signal) Waiting() int { return len(s.waiters) }
