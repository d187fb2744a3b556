package sim

// Semaphore is a counting semaphore of unit permits with FIFO fairness:
// waiters acquire in arrival order. It models bounded resources such as a
// condor schedd's shadow or a queue-proxy's container-concurrency gate.
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

// Waiting reports whether a process is parked on the gate.
func (g *Gate) Waiting() bool { return g.p != nil }

// Signal is a broadcast-only condition variable: processes Wait on it and
// every Broadcast wakes all current waiters. It backs watch/notify patterns
// (informers, reconcile loops). The zero Signal is ready to use.
type Signal struct {
	waiters []*Proc
}

// Wait blocks the calling process until the next Broadcast.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.park()
}

// Broadcast wakes every process currently blocked in Wait. The waiter
// slice is kept for the next cycle, so a steady wait/broadcast loop does not
// allocate: a wake only enqueues, and no waiter can run before the slice is
// cleared.
func (s *Signal) Broadcast() {
	for _, p := range s.waiters {
		p.wake()
	}
	clear(s.waiters)
	s.waiters = s.waiters[:0]
}

// Waiting returns the number of blocked waiters.
func (s *Signal) Waiting() int { return len(s.waiters) }
