package knative

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Invoke performs one synchronous function call: route to a replica
// (buffering in the activator on scale-from-zero), move the input payload to
// the replica's node, execute under the queue-proxy's concurrency limit, and
// return the output payload. Replica failures (scale-down races, pod kills)
// are retried through the full path under the InvokeRetry policy, with
// exponential backoff between attempts; application-level (staging) errors
// surface to the caller unretried.
//
// With overload protection configured, Invoke additionally: stamps a
// default deadline from Params.InvokeDeadline, fast-fails when the
// service's circuit breaker is open (ErrCircuitOpen, not retried), feeds
// the breaker with backend verdicts, and gates every retry through the
// serving layer's shared retry budget — an exhausted budget surfaces the
// last backend error instead of re-amplifying it.
//
// Invoke runs the invocation as InvokeAsync does, with p's resume at the
// chain's end, and parks p once: p resumes in the slot where the chain ends.
func (s *Service) Invoke(p *sim.Proc, req Request) (Response, error) {
	c := s.kn.newCall(s, req)
	c.resume = p.Resumer()
	c.start()
	p.Await()
	resp, err := c.resp, c.err
	s.kn.freeCall(c)
	return resp, err
}

// InvokeAsync is Invoke as a continuation chain (see sim.Env.Defer): it
// needs no process, and done, which must not block, receives the outcome
// where Invoke would have returned it. Called at the run-queue slot where a
// process spawned to call Invoke would first run, it keeps every (at, seq),
// run-queue order and random draw of that process. The StageIn and
// StageOut hooks are steps of the chain: each starts where the chain
// reaches it, and the chain continues where it reports.
func (s *Service) InvokeAsync(req Request, done func(Response, error)) {
	c := s.kn.newCall(s, req)
	c.done = done
	c.start()
}

// call is one invocation in flight: its request, the attempt under way,
// and the state the steps of its chain share. Calls are recycled through
// Knative.calls, and every wait re-arms the one step closure bound when the
// call was allocated, so a warm invocation allocates nothing.
type call struct {
	s      *Service
	req    Request
	done   func(Response, error) // InvokeAsync's callback; nil under Invoke
	resume func()                // Invoke's caller's resume; nil under InvokeAsync
	step   func()                // c.advance, bound once
	staged func(error)           // a staging hook's report, bound once

	sp    *trace.Span // the attempt's invoke span
	phase *trace.Span // the open coldstart, queue, payload, proxy or backoff span
	h     *podHandle  // the replica whose slot the attempt holds
	// attempt counts the attempts made; enq and slot are when the current
	// one joined the queue and claimed its slot.
	attempt   int
	enq, slot time.Duration
	resp      Response
	// err is the failure of the attempt's staging or execution, retryable
	// when its replica died; once the call finished, the outcome.
	err   error
	stage callStage
	died  bool
	cold  bool
	// next links the service's wait queue; wakeEnd marks a wake's last.
	next    *call
	wakeEnd bool
	// admitted holds a seat in the activator's waiting room. An attempt
	// admitted or holding a slot counts in the service's in-flight requests.
	admitted bool
}

// callStage names the step an invocation's chain runs next.
type callStage uint8

const (
	callBackoff    callStage = iota // a retry's backoff has elapsed
	callIngress                     // the ingress message reached the route
	callColdWait                    // waiting for a ready replica (see wait)
	callQueueWait                   // waiting for a free slot (see wait)
	callEncodedIn                   // the request body is marshalled
	callSentIn                      // the body reached the replica's node
	callDecodedIn                   // the function unmarshalled it
	callProxied                     // the queue-proxy overhead has elapsed
	callStagedIn                    // StageIn returned
	callExecuted                    // the function body ran
	callStagedOut                   // StageOut returned
	callEncodedOut                  // the response is marshalled
	callSentOut                     // the response reached the caller's node
	callDecodedOut                  // the caller unmarshalled it
)

func (kn *Knative) newCall(s *Service, req Request) *call {
	var c *call
	if n := len(kn.calls); n > 0 {
		c = kn.calls[n-1]
		kn.calls[n-1] = nil
		kn.calls = kn.calls[:n-1]
	} else {
		c = &call{}
		c.step = c.advance
		c.staged = func(err error) {
			c.err = err
			c.advance()
		}
	}
	c.s, c.req = s, req
	return c
}

func (kn *Knative) freeCall(c *call) {
	*c = call{step: c.step, staged: c.staged}
	kn.calls = append(kn.calls, c)
}

// start stamps the default deadline and makes the first attempt.
func (c *call) start() {
	kn := c.s.kn
	if c.req.Deadline == 0 && kn.prm.InvokeDeadline > 0 {
		c.req.Deadline = kn.env.Now() + kn.prm.InvokeDeadline
	}
	c.attempt = 1
	c.try()
}

// finish ends the invocation with err and the last attempt's response.
func (c *call) finish(err error) {
	if c.resume != nil {
		c.err = err
		c.resume()
		return
	}
	done, resp := c.done, c.resp
	c.s.kn.freeCall(c)
	done(resp, err)
}

// try makes one attempt: the breaker's verdict, then the ingress hop.
func (c *call) try() {
	s := c.s
	env := s.kn.env
	c.resp, c.err, c.died, c.cold = Response{}, nil, false, false
	now := env.Now()
	if !s.breaker.Allow(now) {
		br := trace.FromEnv(env).Start(c.req.Parent, "knative", "breaker",
			trace.L("service", s.spec.Name),
			trace.L("state", s.breaker.State(now).String()))
		br.End()
		c.finish(fmt.Errorf("knative: service %s: %w", s.spec.Name, resilience.ErrCircuitOpen))
		return
	}
	if s.stopped {
		c.endAttempt(fmt.Errorf("knative: service %s is shut down", s.spec.Name), false)
		return
	}
	s.Requests++
	if tr := trace.FromEnv(env); tr != nil {
		c.sp = tr.Start(c.req.Parent, "knative", "invoke",
			trace.L("service", s.spec.Name), trace.L("attempt", strconv.Itoa(c.attempt)))
	}
	// Ingress hop: client → route.
	c.stage = callIngress
	s.kn.cl.Net.MessageThen(c.req.From, cluster.SubmitNodeName, c.step)
}

// advance runs the chain's next step. Each step runs in the event callback
// that ends its wait, or from the run queue for a zero wait, a wake-up or a
// drained fluid job: since an event fires only on an empty run queue, the
// chain keeps every (at, seq), run-queue order and RNG draw a process
// waiting through the same steps would have.
func (c *call) advance() {
	kn := c.s.kn
	switch c.stage {
	case callBackoff:
		c.endPhase()
		c.attempt++
		c.try()
	case callIngress:
		c.admit()
	case callEncodedIn:
		c.stage = callSentIn
		kn.cl.Net.TransferThen(c.req.From, c.h.pod.NodeName, c.req.PayloadIn, c.step)
	case callSentIn:
		c.stage = callDecodedIn
		kn.env.Delay(kn.codecTime(c.req.PayloadIn), c.step)
	case callDecodedIn:
		c.endPhase()
		c.phase = trace.FromEnv(kn.env).Start(c.sp, "knative", "queue-proxy")
		c.stage = callProxied
		kn.env.Delay(kn.prm.QueueProxyOverhead, c.step)
	case callProxied:
		c.endPhase()
		c.proxied()
	case callStagedIn:
		if c.err != nil {
			c.endSlot()
			return
		}
		c.exec()
	case callExecuted:
		if c.req.StageOut != nil {
			c.stage = callStagedOut
			c.req.StageOut(c.sp, c.h.pod.NodeName, c.staged)
			return
		}
		c.payloadOut()
	case callStagedOut:
		if c.err != nil {
			c.endSlot()
			return
		}
		c.payloadOut()
	case callEncodedOut:
		c.stage = callSentOut
		kn.cl.Net.TransferThen(c.h.pod.NodeName, c.req.From, c.req.PayloadOut, c.step)
	case callSentOut:
		c.stage = callDecodedOut
		kn.env.Delay(kn.codecTime(c.req.PayloadOut), c.step)
	case callDecodedOut:
		c.endPhase()
		c.endSlot()
	}
}

func (c *call) endPhase() {
	c.phase.End()
	c.phase = nil
}

// admit is activator admission: a bounded waiting room replaces the
// unbounded ingress buffer. Requests already past their deadline, arriving
// to a full room, or facing an estimated wait longer than their remaining
// budget are shed at the door — before they consume queue space or pod
// capacity.
func (c *call) admit() {
	s := c.s
	env := s.kn.env
	tr := trace.FromEnv(env)
	remaining := resilience.Remaining(c.req.Deadline, env.Now())
	if c.req.Deadline > 0 && remaining <= 0 {
		s.DeadlineDrops++
		c.sp.SetLabel("status", "deadline")
		c.endAttempt(fmt.Errorf("knative: service %s: %w at admission", s.spec.Name, resilience.ErrDeadlineExceeded), false)
		return
	}
	if err := s.admission.TryEnter(s.estimateWait(), remaining); err != nil {
		reason := "queue-full" // which admission check fired
		if errors.Is(err, resilience.ErrWouldExpire) {
			reason = "would-expire"
		}
		shed := tr.Start(c.sp, "knative", "shed", trace.L("service", s.spec.Name), trace.L("reason", reason))
		shed.End()
		c.sp.SetLabel("status", "shed")
		c.endAttempt(fmt.Errorf("knative: service %s: %w", s.spec.Name, err), false)
		return
	}
	c.admitted = true
	s.inFlight++
	if s.ReadyPods() == 0 {
		// Activator path: ensure a replica is coming and buffer.
		c.cold = true
		s.ColdStarts++
		c.phase = tr.Start(c.sp, "knative", "coldstart", trace.L("service", s.spec.Name))
		if s.StartingPods() == 0 && !s.stopped {
			s.scaleTo(1)
		}
		c.stage = callColdWait
		c.wait(false, false)
		return
	}
	c.enqueue()
}

// enqueue buffers the request at the ingress (as the activator/queue-proxy
// pair does) until capacity exists.
func (c *call) enqueue() {
	env := c.s.kn.env
	c.enq = env.Now()
	c.phase = trace.FromEnv(env).Start(c.sp, "knative", "queue", trace.L("service", c.s.spec.Name))
	c.stage = callQueueWait
	c.wait(true, true)
}

// wait is a waiting request's one check, made where its wait starts and at
// each wake that reaches it (see Service.drain). It ends the attempt if the
// service stopped or the deadline passed, moves a cold waiter that sees a
// ready replica to the queue, or gives a queued request a free slot unless
// free says there is none; otherwise the request joins the back of the
// queue. It reports whether the request acted.
func (c *call) wait(ready, free bool) bool {
	s := c.s
	kn := s.kn
	env := kn.env
	cold := c.stage == callColdWait
	var h *podHandle
	switch {
	case cold && ready:
		c.endPhase()
		c.enqueue()
		return true
	case s.stopped:
		c.endPhase()
		c.sp.SetLabel("status", "failed")
		c.endAttempt(fmt.Errorf("knative: service %s shut down while queued", s.spec.Name), false)
		return true
	case resilience.Expired(c.req.Deadline, env.Now()):
		where := "in queue"
		if cold {
			where = "during cold start"
		}
		c.endPhase()
		s.DeadlineDrops++
		c.sp.SetLabel("status", "deadline")
		c.endAttempt(fmt.Errorf("knative: service %s: %w %s", s.spec.Name, resilience.ErrDeadlineExceeded, where), false)
		return true
	case cold:
	case !free:
		s.rr++ // the round-robin step of the pick that would fail
	default:
		h = s.pickAvailable(c.sp)
	}
	if h == nil {
		if s.qHead == nil {
			s.qHead = c
		} else {
			s.qTail.next = c
		}
		s.qTail = c
		return false
	}
	c.h = h
	c.admitted = false // holding a serving slot: leave the waiting room
	s.admission.Exit()
	h.inFlight++
	c.phase.SetLabel("node", h.pod.NodeName)
	c.endPhase()
	now := env.Now()
	c.resp = Response{PodNode: h.pod.NodeName, Cold: c.cold, Queued: now - c.enq}
	c.sp.SetLabel("node", h.pod.NodeName)
	c.slot = now
	// Pass-by-value file handling (§IV-3): the caller marshals the input
	// files into the request body, the function unmarshals them; the
	// response payload pays the same costs in reverse.
	c.phase = trace.FromEnv(env).Start(c.sp, "knative", "payload-in")
	c.stage = callEncodedIn
	env.Delay(kn.codecTime(c.req.PayloadIn), c.step)
	return true
}

// wake schedules a drain of the requests queued since the last wake, at
// the run-queue slot where the first of them would run had each its own
// entry. With nobody queued since, there is nothing to drain.
func (s *Service) wake() {
	if s.qHead == nil || s.qTail.wakeEnd {
		return
	}
	s.qTail.wakeEnd = true
	s.kn.env.Defer(s.drainStep)
}

// drain runs one wake: it takes the wake's requests off the front of the
// queue in arrival order and runs wait on each. Until one acts the replicas
// do not change, so ready and free are read once per run of checks. One
// that ends its attempt may resume its caller, who runs first: the rest of
// the wake continues from the front of the run queue, behind it.
func (s *Service) drain() {
	now := s.kn.env.Now()
	ready, free := s.capacity()
	for {
		c := s.qHead
		s.qHead, c.next = c.next, nil
		last := c.wakeEnd
		c.wakeEnd = false
		if !last && (s.stopped || resilience.Expired(c.req.Deadline, now)) {
			s.kn.env.DeferFirst(s.drainStep)
			c.wait(ready, free)
			return
		}
		if c.wait(ready, free) {
			ready, free = s.capacity()
		}
		if last {
			return
		}
	}
}

// proxied is queue-proxy deadline enforcement, the last check before the
// function body runs: payload transfer and proxy overhead may have
// consumed the remaining budget, and executing anyway would waste a pod
// slot on a response nobody is waiting for.
func (c *call) proxied() {
	s := c.s
	if resilience.Expired(c.req.Deadline, s.kn.env.Now()) {
		c.freeSlot()
		s.DeadlineDrops++
		c.sp.SetLabel("status", "deadline")
		c.endAttempt(fmt.Errorf("knative: service %s: %w at queue-proxy", s.spec.Name, resilience.ErrDeadlineExceeded), false)
		return
	}
	if c.req.StageIn != nil {
		c.stage = callStagedIn
		c.req.StageIn(c.sp, c.h.pod.NodeName, c.staged)
		return
	}
	c.exec()
}

// exec runs the function body on the replica.
func (c *call) exec() {
	c.stage = callExecuted
	if err := c.h.pod.ExecThen(c.sp, c.req.Work, c.step); err != nil {
		c.err, c.died = err, true
		c.endSlot()
	}
}

// payloadOut returns the response body to the caller.
func (c *call) payloadOut() {
	kn := c.s.kn
	c.phase = trace.FromEnv(kn.env).Start(c.sp, "knative", "payload-out")
	c.stage = callEncodedOut
	kn.env.Delay(kn.codecTime(c.req.PayloadOut), c.step)
}

// freeSlot returns the attempt's slot; capacity freed admits
// ingress-buffered requests.
func (c *call) freeSlot() {
	c.h.free++
	c.h.inFlight--
	c.s.wake()
}

// endSlot frees the slot of an attempt that reached its replica and ends
// the attempt with its verdict.
func (c *call) endSlot() {
	s := c.s
	c.freeSlot()
	if c.err != nil {
		// The replica died under us (scale-down race, pod kill):
		// retryable. Or an application-level failure: surface to the
		// caller, no retry.
		c.sp.SetLabel("status", "failed")
		c.endAttempt(c.err, c.died)
		return
	}
	s.observeSlotTime(s.kn.env.Now() - c.slot)
	c.endAttempt(nil, false)
}

// endAttempt closes an attempt that ended with err — retryable for a
// replica death as opposed to terminal (shed, deadline drop, shutdown,
// staging failure) — feeds the breaker, and retries after a backoff when
// the policy and the retry budget allow.
func (c *call) endAttempt(err error, retryable bool) {
	s := c.s
	kn := s.kn
	env := kn.env
	if c.admitted || c.h != nil {
		s.inFlight--
	}
	if c.admitted {
		s.admission.Exit()
		c.admitted = false
	}
	c.sp.End()
	c.sp, c.h = nil, nil
	now := env.Now()
	switch {
	case err == nil:
		s.breaker.OnSuccess(now)
		kn.budget.OnSuccess()
		c.finish(nil)
		return
	case retryable:
		// Backend failure (replica death): the breaker's signal.
		s.breaker.OnFailure(now)
	default:
		// Shed, deadline drop, or application error: no verdict on
		// backend health — return a claimed half-open probe slot.
		s.breaker.OnDrop(now)
		c.finish(err)
		return
	}
	rp := kn.prm.InvokeRetry
	if c.attempt >= rp.Attempts() {
		c.finish(err)
		return
	}
	if !kn.budget.TryRetry() {
		c.finish(fmt.Errorf("knative: service %s: retry budget exhausted: %w", s.spec.Name, err))
		return
	}
	if tr := trace.FromEnv(env); tr != nil {
		c.phase = tr.Start(c.req.Parent, "knative", "backoff",
			trace.L("service", s.spec.Name), trace.L("attempt", strconv.Itoa(c.attempt)))
	}
	c.stage = callBackoff
	env.Delay(rp.Backoff(c.attempt, env.Rand()), c.step)
}
