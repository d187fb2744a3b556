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
	stateParked  // in Await: resume runs it next
	stateWaiting // in a kernel wait: resume queues it in arrival order
	stateResumed // running, its resume already called: Await returns at once
	stateDone
)

func (s procState) String() string {
	switch s {
	case stateReady:
		return "ready"
	case stateRunning:
		return "running"
	case stateParked, stateWaiting:
		return "parked"
	case stateResumed:
		return "resumed"
	case stateDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Proc is a simulation process: a coroutine (iter.Pull) scheduled
// cooperatively by its Env. Await and every wait that takes a *Proc
// must be called from the process's own function body (the fn passed to
// Env.Go); calling them from outside the simulation corrupts scheduling.
type Proc struct {
	env   *Env
	id    int
	name  string
	state procState
	fn    func(*Proc) // the body of the current lifetime; nil while idle
	// pull switches from the run loop into the coroutine, which runs until
	// it calls yield; stop ends an idle coroutine.
	pull  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	// enter is p's run-queue entry (p.run), and resume (p.wake) puts it
	// there. Both are bound once per Proc, so no wait allocates a closure
	// to wake a process.
	enter, resume func()
}

// maxIdleProcs caps the finished processes whose coroutines stay suspended
// for reuse by Env.Go. Reuse keeps spawning allocation-free; the cap bounds
// the stacks the idle coroutines hold.
const maxIdleProcs = 16

// newProc returns a process with a fresh coroutine that has not started.
func newProc(e *Env) *Proc {
	e.stats.Coroutines++
	p := &Proc{env: e}
	p.pull, p.stop = iter.Pull(p.body)
	p.enter, p.resume = p.run, p.wake
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

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.env.now }

// Rand returns the environment's deterministic random source.
func (p *Proc) Rand() *RNG { return p.env.rng }

// String identifies the process in diagnostics.
func (p *Proc) String() string { return fmt.Sprintf("proc %d (%s)", p.id, p.name) }

// run switches from the run loop into the coroutine until the process parks,
// yields or returns.
func (p *Proc) run() {
	p.env.stats.Resumes++
	p.state = stateRunning
	p.pull()
}

// Resumer returns the continuation that ends the process's wait in Await:
// the one way a process waits is to hand it to a wait's continuation form
// and park. Called while the process is parked, it puts the process at the
// front of the run queue, so it runs in the slot where the continuation
// ran; called before the process parks, because the wait finished at once,
// it makes Await return without parking. The func is bound once per
// process and allocates nothing.
func (p *Proc) Resumer() func() { return p.resume }

// wake is the process's resume. The kernel's own blocking waits (Future,
// WaitGroup) queue it too; for them it queues the process
// behind the entries already ready, in arrival order with the other
// waiters its wait releases.
func (p *Proc) wake() {
	switch p.state {
	case stateParked:
		p.state = stateReady
		p.env.ready.pushFront(p.enter)
	case stateWaiting:
		p.state = stateReady
		p.env.ready.push(p.enter)
	case stateRunning:
		p.state = stateResumed
	default:
		panic(fmt.Sprintf("sim: resume of %v in state %v", p, p.state))
	}
}

// Await parks the process until its resume is called, and returns at once
// when that already happened.
func (p *Proc) Await() { p.park(stateParked) }

// park switches back to the run loop in state s, a parked state, unless the
// process's resume was called first.
func (p *Proc) park(s procState) {
	if p.state == stateResumed {
		p.state = stateRunning
		return
	}
	p.state = s
	p.yield(struct{}{})
}

// Sleep blocks the process for d of virtual time: Env.Delay with the
// process's resume, and one park. A non-positive d yields the processor
// without advancing the clock: the process resumes from the back of the run
// queue, after every entry already ready. Sleeping allocates nothing in
// steady state: the event is a recycled struct, the resume a bound func,
// and no Timer handle escapes.
func (p *Proc) Sleep(d time.Duration) {
	p.env.Delay(d, p.resume)
	p.Await()
}
