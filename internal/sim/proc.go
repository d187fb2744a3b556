//go:build go1.23

// The line above lifts this file, the kernel's one user of iter.Pull, to
// go1.23 while go.mod stays at go 1.22 for the modules that pin it.

package sim

import (
	"fmt"
	"iter"
	"time"
)

type procState int

const (
	stateReady procState = iota
	stateRunning
	stateParked
	stateDone
)

func (s procState) String() string {
	switch s {
	case stateReady:
		return "ready"
	case stateRunning:
		return "running"
	case stateParked:
		return "parked"
	case stateDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Proc is a simulation process: a coroutine (iter.Pull) scheduled
// cooperatively by its Env. All blocking methods must be called from the
// process's own function body (the fn passed to Env.Go); calling them from
// outside the simulation corrupts scheduling.
type Proc struct {
	env   *Env
	id    int
	name  string
	state procState
	fn    func(*Proc) // the body of the current lifetime; nil while idle
	// prev and next link the live processes in spawn order (Env.live).
	prev, next *Proc
	// resume switches from the driver into the coroutine, which runs until
	// it calls yield; stop ends an idle coroutine.
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
}

// maxIdleProcs caps the finished processes whose coroutines stay suspended
// for reuse by Env.Go. Reuse keeps spawning allocation-free; the cap bounds
// the stacks the idle coroutines hold.
const maxIdleProcs = 16

// newProc returns a process with a fresh coroutine that has not started.
func newProc(e *Env) *Proc {
	e.stats.Coroutines++
	p := &Proc{env: e}
	p.resume, p.stop = iter.Pull(p.body)
	return p
}

// body is the coroutine of p. It runs one fn per process lifetime, retires
// the process, and suspends in the idle pool until Env.Go reuses it. It
// returns, ending the coroutine, when the pool is full or released.
func (p *Proc) body(yield func(struct{}) bool) {
	p.yield = yield
	e := p.env
	for {
		p.fn(p)
		p.fn = nil
		p.state = stateDone
		e.alive--
		p.prev.next, p.next.prev = p.next, p.prev // leave the live ring
		if len(e.procPool) == maxIdleProcs {
			return
		}
		e.procPool = append(e.procPool, p)
		if !yield(struct{}{}) {
			return
		}
	}
}

// releaseIdle stops the idle coroutines and empties the pool. A suspended
// coroutine is a GC root: an idle one would keep its whole Env reachable.
func (e *Env) releaseIdle() {
	for i, p := range e.procPool {
		p.stop()
		e.procPool[i] = nil
	}
	e.procPool = e.procPool[:0]
}

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Name returns the name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.env.now }

// Rand returns the environment's deterministic random source.
func (p *Proc) Rand() *RNG { return p.env.rng }

// String identifies the process in diagnostics.
func (p *Proc) String() string { return fmt.Sprintf("proc %d (%s)", p.id, p.name) }

// park switches back to the driver and blocks until another process or an
// event callback calls wake and the driver resumes the coroutine.
func (p *Proc) park() {
	p.state = stateParked
	p.yield(struct{}{})
}

// wake moves a parked process back onto the run queue. The caller must be
// the running process or an event callback. Waking a non-parked process is
// a kernel bug.
func (p *Proc) wake() {
	if p.state != stateParked {
		panic(fmt.Sprintf("sim: wake of %v in state %d", p, p.state))
	}
	p.env.enqueue(p)
}

// wakeFirst is wake ahead of every ready entry: the process runs next.
func (p *Proc) wakeFirst() {
	if p.state != stateParked {
		panic(fmt.Sprintf("sim: wake of %v in state %d", p, p.state))
	}
	p.state = stateReady
	p.env.ready.pushFront(runnable{p: p})
}

// Sleep blocks the process for d of virtual time. Non-positive durations
// yield the processor without advancing the clock. Sleeping allocates
// nothing in steady state: the wake-up event is a recycled struct carrying
// the process pointer directly, with no closure and no Timer handle.
func (p *Proc) Sleep(d time.Duration) {
	if d <= 0 {
		p.Yield()
		return
	}
	p.env.afterWake(d, p)
	p.park()
}

// Yield places the process at the back of the run queue, letting every other
// currently runnable process execute before it resumes. The clock does not
// advance.
func (p *Proc) Yield() {
	p.env.enqueue(p)
	p.yield(struct{}{})
}
