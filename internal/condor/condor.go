// Package condor models the HTCondor batch system the paper's Pegasus
// deployment runs on: a schedd holding the job queue, one startd per worker
// advertising static slots (one per core), and a negotiator that matches
// idle jobs to free slots on a fixed cycle. Matched jobs pay a serialized
// shadow-spawn cost at the schedd, have their input sandbox transferred from
// the submit node (through its uplink — the bottleneck behind Fig. 2's
// container slope), execute on the claimed worker, and transfer outputs
// back.
//
// The absolute makespans in the paper's Fig. 6 are dominated by this layer:
// a sequential workflow pays roughly one negotiation cycle per task.
package condor

import (
	"cmp"
	"fmt"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ExecContext is what a job's payload receives on the execution node.
type ExecContext struct {
	// Node is the claimed worker.
	Node *cluster.Node
	// Span is the job's payload span, the parent of every span the payload
	// opens; nil when no tracer is attached.
	Span *trace.Span
}

// Runner is a job's payload, executed on the claimed worker node as a chain
// of continuations: Run starts it where the job's chain reaches the
// payload, and the payload reports its outcome by calling done exactly
// once, where a process running it would have returned. Each step runs
// in the run-queue slot that a process waiting through the same steps
// would run in, so a payload waits only on continuation forms and spawns
// no process. A submitter that runs many jobs passes a pointer into its
// own state, so a submission builds no closure; done is bound once per job
// struct.
type Runner interface {
	Run(ctx *ExecContext, done func(error))
}

// JobStatus tracks a job through the queue.
type JobStatus int

// Job states, mirroring condor_q.
const (
	StatusIdle JobStatus = iota
	StatusRunning
	StatusCompleted
	StatusFailed
)

func (s JobStatus) String() string {
	switch s {
	case StatusIdle:
		return "Idle"
	case StatusRunning:
		return "Running"
	case StatusCompleted:
		return "Completed"
	case StatusFailed:
		return "Failed"
	default:
		return fmt.Sprintf("JobStatus(%d)", int(s))
	}
}

// Job is one queued unit of work. The schedd recycles a Job struct once the
// job has settled and its submitter has called Release; until then the
// submitter may read it freely.
type Job struct {
	ID   int
	Name string
	// Priority orders competition for scarce slots: higher runs first
	// (condor's JobPrio). Ties break by submission order.
	Priority int
	// Requires is the job's ClassAd-style requirements expression: the
	// negotiator only matches the job to nodes it accepts. nil matches any
	// node.
	Requires func(*cluster.Node) bool
	// TransferInputBytes is the input sandbox shipped submit → worker
	// before execution (matrices; plus the container image in Pegasus's
	// container universe).
	TransferInputBytes int64
	// TransferOutputBytes is shipped worker → submit afterwards.
	TransferOutputBytes int64
	// InputLFNs are the job's logical input file names, consumed by the
	// data-locality placement policy (scratch residency scoring).
	InputLFNs []string
	// Run is the payload.
	Run Runner

	status JobStatus
	node   string
	slot   int
	done   sim.Future[error]
	ctx    ExecContext // the payload's argument
	// sd is the claimed startd and epoch its epoch at claim time: a
	// mismatch afterwards means the node crashed underneath the job.
	sd       *startd
	epoch    int
	released bool

	// stage is the step a matched job's chain runs next, err the outcome
	// it carries to the job's settlement, and phase the open span of the
	// current step (shadow, xfer-in, job-start, payload, xfer-out or
	// requeue).
	stage jobStage
	err   error
	phase *trace.Span

	// then is the continuation Then registered, nil when none waits.
	then func(*Job)

	// match, step, ran and recycle are tryMatch, advance, payloadDone and
	// reuse bound to this struct. wake, which queues settled, and settled,
	// the call of then, are bound at the struct's first Then. They survive
	// recycling, so neither a submission, a chain step nor a Then
	// allocates a closure once the struct is warm.
	match, step, recycle, wake, settled func()
	ran                                 func(error)

	// span covers the job's full queue lifetime; queue and claim are its
	// matchmaking-wait and slot-occupancy children, and the per-phase spans
	// (shadow, transfers, payload) nest under claim so sibling intervals
	// never overlap — critical-path accounting relies on that.
	span  *trace.Span
	queue *trace.Span
	claim *trace.Span

	// Timestamps for analysis.
	SubmittedAt time.Duration
	StartedAt   time.Duration
	FinishedAt  time.Duration
}

// Status returns the job's queue status.
func (j *Job) Status() JobStatus { return j.status }

// Node returns the worker that ran (or is running) the job.
func (j *Job) Node() string { return j.node }

type startd struct {
	node  *cluster.Node
	slots int
	free  int
	// claimed tracks which slot indices are occupied, so traces can name
	// the exact slot a job ran on (slot-exclusivity is asserted on spans).
	claimed []bool
	// offline marks a crashed node: it matches no jobs and its slots are
	// unclaimed until restoreNode.
	offline bool
	// epoch increments on every crash, so jobs claimed before the crash
	// cannot double-free slots the reboot already reset, and their results
	// are recognisably stale.
	epoch int
}

// Schedd is the submit-side daemon plus the negotiator and startds of the
// pool. Two negotiation models are supported (config.PerJobNegotiation):
// per-job submit-triggered matching (default) and a strict global cycle.
type Schedd struct {
	env *sim.Env
	cl  *cluster.Cluster
	prm config.Params

	idle     []*Job // cycle mode: jobs awaiting the next cycle
	blocked  []*Job // per-job mode: matched but no slot free yet
	startds  []*startd
	policy   string // placement policy name, for traces
	locality bool   // data-locality policy: input residency scores first
	rrOffset int    // rotates tie-breaking among equally free startds
	nextID   int
	shadow   *sim.Semaphore // serializes shadow spawns at the schedd
	rng      *sim.RNG
	faults   *faults.Injector
	stopped  bool
	started  bool
	cycle    func() // negotiate, bound once (cycle mode)
	running  int
	finished int
	free     []*Job // settled, released jobs awaiting reuse
}

// New builds a pool: one startd per worker with one slot per core.
func New(env *sim.Env, cl *cluster.Cluster, prm config.Params) *Schedd {
	s := &Schedd{
		env:    env,
		cl:     cl,
		prm:    prm,
		shadow: sim.NewSemaphore(1),
		rng:    env.Rand().Fork(),
	}
	for _, w := range cl.Workers {
		s.startds = append(s.startds, &startd{node: w, slots: w.Cores, free: w.Cores, claimed: make([]bool, w.Cores)})
	}
	// The placement policy is prm.CondorPlacementPolicy. The empty name
	// selects the seed negotiator's behaviour: most free slots, ties rotated
	// round-robin so no machine is permanently favoured.
	switch s.policy = cmp.Or(prm.CondorPlacementPolicy, sched.PolicyMostFreeRR); s.policy {
	case sched.PolicyMostFreeRR:
	case sched.PolicyDataLocality:
		s.locality = true
	default:
		panic(fmt.Sprintf("condor: unknown CondorPlacementPolicy %q (valid: %s, %s)",
			s.policy, sched.PolicyMostFreeRR, sched.PolicyDataLocality))
	}
	return s
}

// Start launches the negotiator (cycle mode only; per-job mode matches from
// submit-triggered events), a recurring event whose first cycle is drawn
// where a process spawned now would first run. Call once before submitting.
func (s *Schedd) Start() {
	if s.started {
		panic("condor: Start called twice")
	}
	s.started = true
	if !s.prm.PerJobNegotiation {
		s.cycle = s.negotiate
		s.env.Defer(s.nextCycle)
	}
}

// Shutdown stops the negotiator: its armed cycle ends without matching.
// Jobs already matched run to completion; idle jobs stay idle forever.
func (s *Schedd) Shutdown() { s.stopped = true }

// AttachFaults connects the pool to the fault injector: node crashes
// (KindNodeCrash with a worker name as target) take the startd offline and
// restore it at window end, and its KindJobFailure rate fails jobs
// transiently.
func (s *Schedd) AttachFaults(in *faults.Injector) {
	s.faults = in
	in.OnFault(faults.KindNodeCrash, func(f faults.Fault, begin bool) {
		if begin {
			s.crashNode(f.Target)
		} else {
			s.restoreNode(f.Target)
		}
	})
}

// crashNode takes a worker's startd offline: its free slots vanish, it
// matches no further jobs, and jobs currently claimed on it lose their
// results when they next reach an observable completion point. Unknown node
// names are ignored (the fault may target a node outside this pool).
func (s *Schedd) crashNode(name string) {
	for _, sd := range s.startds {
		if sd.node.Name != name {
			continue
		}
		sd.offline = true
		sd.epoch++
		sd.free = 0
		return
	}
}

// restoreNode brings a crashed startd back with all slots free (the reboot
// wiped its claims) and immediately offers the slots to blocked jobs.
func (s *Schedd) restoreNode(name string) {
	for _, sd := range s.startds {
		if sd.node.Name != name {
			continue
		}
		if !sd.offline {
			return
		}
		sd.offline = false
		sd.free = sd.slots
		for i := range sd.claimed {
			sd.claimed[i] = false
		}
		if s.prm.PerJobNegotiation && !s.stopped {
			s.dispatchBlocked(sd.free)
		}
		return
	}
}

// FreeSlots returns currently unclaimed slots.
func (s *Schedd) FreeSlots() int {
	n := 0
	for _, sd := range s.startds {
		n += sd.free
	}
	return n
}

// JobSpec describes a job to queue: the submit-file surface.
type JobSpec struct {
	Name     string
	Priority int
	Requires func(*cluster.Node) bool
	// TransferInputBytes/TransferOutputBytes size the sandbox transfers.
	TransferInputBytes  int64
	TransferOutputBytes int64
	// InputLFNs are the job's logical input files, consumed by the
	// data-locality placement policy.
	InputLFNs []string
	Run       Runner
	// Parent is the span the job's span nests under; nil makes it a root.
	Parent *trace.Span
}

// SubmitJob queues a job described by spec. It never blocks; wait for
// completion with Wait.
func (s *Schedd) SubmitJob(spec JobSpec) *Job {
	if !s.started {
		panic("condor: Submit before Start")
	}
	j := s.newJob()
	j.ID = s.nextID
	j.Name = spec.Name
	j.Priority = spec.Priority
	j.Requires = spec.Requires
	j.TransferInputBytes = spec.TransferInputBytes
	j.TransferOutputBytes = spec.TransferOutputBytes
	j.InputLFNs = spec.InputLFNs
	j.Run = spec.Run
	j.SubmittedAt = s.env.Now()
	s.nextID++
	tr := trace.FromEnv(s.env)
	j.span = tr.Start(spec.Parent, "condor", "job", trace.L("job", j.Name))
	j.queue = tr.Start(j.span, "condor", "queue", trace.L("job", j.Name))
	if s.prm.PerJobNegotiation {
		// The schedd's reschedule request triggers a negotiation for this
		// job after the (jittered) negotiation latency.
		delay := s.rng.Jitter(s.prm.NegotiationDelay, s.prm.NegotiatorJitterFrac)
		s.env.After(delay, j.match)
	} else {
		s.idle = insertByPriority(s.idle, j)
	}
	return j
}

// newJob takes a job struct off the free list, or makes one and binds its
// callbacks.
func (s *Schedd) newJob() *Job {
	if n := len(s.free); n > 0 {
		j := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return j
	}
	j := &Job{}
	j.match = func() { s.tryMatch(j) }
	j.step = func() { s.advance(j) }
	j.ran = func(err error) { s.payloadDone(j, err) }
	j.recycle = func() { s.reuse(j) }
	return j
}

// Release tells the schedd that the submitter will not read j again, nor
// wait on it. Once j has also settled, its struct goes back to the free
// list for a later submission. The reuse is queued behind every process
// and continuation that the settlement woke, so a waiter that reads the
// job right after Wait still sees this job. A job never released is left
// to the garbage collector. Releasing a job twice is a modelling bug and
// panics.
func (s *Schedd) Release(j *Job) {
	if j.released {
		panic("condor: job released twice")
	}
	j.released = true
	if j.done.Done() {
		s.env.Defer(j.recycle)
	}
}

// reuse clears a settled, released job and puts it on the free list.
func (s *Schedd) reuse(j *Job) {
	done, match, step, ran, recycle, wake, settled := j.done, j.match, j.step, j.ran, j.recycle, j.wake, j.settled
	*j = Job{done: done, match: match, step: step, ran: ran, recycle: recycle, wake: wake, settled: settled}
	j.done.Reset()
	s.free = append(s.free, j)
}

// tryMatch (per-job mode) claims a slot for the job or parks it until one
// frees, in priority order.
func (s *Schedd) tryMatch(j *Job) {
	if s.stopped {
		return
	}
	best, feasible, _ := s.pickStartdFor(j)
	if best < 0 {
		s.blocked = insertByPriority(s.blocked, j)
		return
	}
	s.dispatch(j, best, feasible)
}

// insertByPriority keeps the queue ordered by descending priority,
// submission order within a priority.
func insertByPriority(q []*Job, j *Job) []*Job {
	i := len(q)
	for i > 0 && q[i-1].Priority < j.Priority {
		i--
	}
	q = append(q, nil)
	copy(q[i+1:], q[i:])
	q[i] = j
	return q
}

// dispatch claims a slot on startd best, the winner of a pickStartdFor scan
// that found feasible matching startds, and starts the job's chain at the
// run-queue slot where a process spawned now would first run. The
// startd's epoch is captured at claim time so a crash during execution is
// detectable. With a tracer attached the decision is recorded as a span
// under the job.
func (s *Schedd) dispatch(j *Job, best, feasible int) {
	tr := trace.FromEnv(s.env)
	var dec sched.Decision
	if tr != nil {
		dec = s.decision(j, best, feasible) // before the claim takes a slot
	}
	sd := s.startds[best]
	sd.free--
	j.slot = 0
	for i, taken := range sd.claimed {
		if !taken {
			j.slot = i
			break
		}
	}
	sd.claimed[j.slot] = true
	j.status = StatusRunning
	j.node = sd.node.Name
	s.running++
	j.queue.End()
	if tr != nil {
		slot := j.node + ":" + strconv.Itoa(j.slot)
		j.span.SetLabel("node", j.node)
		j.span.SetLabel("slot", slot)
		j.claim = tr.Start(j.span, "condor", "claim",
			trace.L("job", j.Name), trace.L("node", j.node), trace.L("slot", slot))
		sched.Record(tr, j.span, "condor", s.policy, j.Name, dec)
	}
	j.sd, j.epoch = sd, sd.epoch
	j.stage = jobMatched
	s.env.Defer(j.step)
}

// dispatchBlocked hands up to max freed slots to blocked jobs (per-job
// mode), in priority order, skipping jobs whose requirements no free node
// satisfies.
func (s *Schedd) dispatchBlocked(max int) {
	for n := 0; n < max; n++ {
		matched := false
		for i, next := range s.blocked {
			if best, feasible, _ := s.pickStartdFor(next); best >= 0 {
				s.blocked = append(s.blocked[:i], s.blocked[i+1:]...)
				s.dispatch(next, best, feasible)
				matched = true
				break
			}
		}
		if !matched {
			return
		}
	}
}

// Wait blocks until the job completes, returning its error.
func (s *Schedd) Wait(p *sim.Proc, j *Job) error {
	return j.done.Get(p)
}

// Then is Wait's continuation form for one watcher: fn(j) runs from the
// run queue once j settles, in arrival order with the processes blocked
// in Wait, and at once when j has settled already. A job holds one such
// continuation at a time. The job's call of fn is bound once per struct,
// so a watcher that binds fn once waits without allocating. The struct is
// recycled only after fn has run, so fn may read a released job.
func (s *Schedd) Then(j *Job, fn func(*Job)) {
	if j.done.Done() {
		fn(j)
		return
	}
	if j.then != nil {
		panic("condor: a second continuation on one job")
	}
	if j.wake == nil {
		j.wake = func() { s.env.Defer(j.settled) }
		j.settled = func() {
			fn := j.then
			j.then = nil
			fn(j)
		}
	}
	j.then = fn
	j.done.Notify(j.wake)
}

// nextCycle (cycle mode) draws the negotiator's next (jittered) cycle and
// arms its end.
func (s *Schedd) nextCycle() {
	if !s.stopped {
		s.env.Delay(s.rng.Jitter(s.prm.NegotiatorCycle, s.prm.NegotiatorJitterFrac), s.cycle)
	}
}

// negotiate ends a cycle: it matches idle jobs to free slots and arms the
// next cycle.
func (s *Schedd) negotiate() {
	if !s.stopped {
		s.matchmake()
		s.nextCycle()
	}
}

// matchmake assigns idle jobs to free slots in priority order, spreading
// them across startds by most-free-slots first. Jobs whose requirements no
// free node satisfies stay idle without blocking jobs behind them.
func (s *Schedd) matchmake() {
	remaining := s.idle[:0]
	for _, j := range s.idle {
		best, feasible, _ := s.pickStartdFor(j)
		if best < 0 {
			remaining = append(remaining, j)
			continue
		}
		s.dispatch(j, best, feasible)
	}
	s.idle = remaining
}

// pickStartdFor matches one job with one sched.Scan over the pool, each
// startd evaluated by evalStartd. It returns the winner's startd index (-1
// when no startd matches now) and the scan's feasible and visited counts.
// The rotation offset advances on every negotiation attempt — matched or
// not — exactly as the seed matchmaker did, so the round-robin stream is
// unchanged.
func (s *Schedd) pickStartdFor(j *Job) (best, feasible, visited int) {
	s.rrOffset++
	return sched.Scan(len(s.startds), s.rrOffset, len(s.startds), func(i int) (float64, bool) {
		return s.evalStartd(j, i)
	})
}

// evalStartd is the negotiator's evaluation of startd i for job j, fused
// into one pass: the online, free-slot and requirements checks, then the
// policy's total score — the startd's free slots, after 1000 times the
// fraction of the job's inputs resident in the node's scratch under
// data-locality (residency dominates; most-free breaks ties). Totals are
// spelled 0 + … by the shared signed-zero rule (see sched.Decision).
func (s *Schedd) evalStartd(j *Job, i int) (float64, bool) {
	sd := s.startds[i]
	if sd.offline || sd.free <= 0 || (j.Requires != nil && !j.Requires(sd.node)) {
		return 0, false
	}
	if s.locality {
		return 0 + 1000*resident(j, sd.node) + float64(sd.free), true
	}
	return 0 + float64(sd.free), true
}

// resident is the data-locality term: the fraction of the job's input files
// already in the node's scratch, 0 for a job without inputs.
func resident(j *Job, n *cluster.Node) float64 {
	if len(j.InputLFNs) == 0 {
		return 0
	}
	k := 0
	for _, lfn := range j.InputLFNs {
		if n.Scratch.Has(lfn) {
			k++
		}
	}
	return float64(k) / float64(len(j.InputLFNs))
}

// decision is the traced form of a match to startd best: the winner, its
// total, and its raw score per term in policy order. It is built only with
// a tracer attached, so an untraced match allocates nothing.
func (s *Schedd) decision(j *Job, best, feasible int) sched.Decision {
	sd := s.startds[best]
	total, _ := s.evalStartd(j, best)
	per := []sched.PluginScore{{Plugin: "most-free", Value: float64(sd.free)}}
	if s.locality {
		per = []sched.PluginScore{{Plugin: sched.PolicyDataLocality, Value: resident(j, sd.node)}, per[0]}
	}
	return sched.Decision{Node: sd.node.Name, Score: total, PerPlugin: per, Feasible: feasible}
}

// jobStage names the step a matched job's chain runs next.
type jobStage uint8

const (
	jobIdle     jobStage = iota // queued, settled or recycled: no step may run
	jobMatched                  // the slot is claimed
	jobShadowed                 // the shadow permit is held
	jobSpawned                  // the shadow spawn has elapsed
	jobSentIn                   // the input sandbox reached the worker
	jobStarted                  // the starter's setup has elapsed
	jobRunning                  // the payload runs (see payloadDone)
	jobEvicted                  // the injected eviction has struck
	jobSentOut                  // the output sandbox reached the submit node
	jobRequeued                 // the requeue penalty has elapsed
)

// advance runs the next step of a matched job's chain: serialized shadow
// spawn, sandbox transfer in, starter setup, payload, transfer out, and a
// failed job's requeue penalty. Each step runs in the event callback that
// ends its wait, or from the run queue for a zero wait or a handed-over
// shadow permit: since an event fires only on an empty run queue, the
// chain keeps every (at, seq), run-queue order and RNG draw of the process
// that once ran the same steps.
func (s *Schedd) advance(j *Job) {
	env := s.env
	tr := trace.FromEnv(env)
	switch j.stage {
	case jobMatched:
		// condor_shadow processes spawn one at a time at the schedd; this
		// serialization is the dominant per-job dispatch cost (Fig. 2's
		// native slope).
		j.phase = tr.Start(j.claim, "condor", "shadow")
		j.stage = jobShadowed
		s.shadow.AcquireThen(env, j.step)
	case jobShadowed:
		j.stage = jobSpawned
		env.Delay(env.Rand().Jitter(s.prm.ShadowSpawn, s.prm.CondorJitterFrac), j.step)
	case jobSpawned:
		s.shadow.Release()
		s.endPhase(j)
		j.phase = tr.Start(j.claim, "condor", "xfer-in", trace.L("node", j.sd.node.Name))
		j.stage = jobSentIn
		s.cl.Net.TransferThen(cluster.SubmitNodeName, j.sd.node.Name, j.TransferInputBytes, j.step)
	case jobSentIn:
		s.endPhase(j)
		j.phase = tr.Start(j.claim, "condor", "job-start")
		j.stage = jobStarted
		env.Delay(env.Rand().Jitter(s.prm.JobStartOverhead, s.prm.CondorJitterFrac), j.step)
	case jobStarted:
		s.endPhase(j)
		j.StartedAt = env.Now()
		s.execute(j)
	case jobEvicted:
		s.endPhase(j)
		j.err = fmt.Errorf("condor: job %d evicted on %s (injected fault)", j.ID, j.sd.node.Name)
		s.sendOutput(j)
	case jobSentOut:
		s.endPhase(j)
		s.releaseClaim(j)
	case jobRequeued:
		s.endPhase(j)
		j.status = StatusFailed
		j.span.SetLabel("status", "failed")
		s.settle(j)
	default:
		panic(fmt.Sprintf("condor: job %d stepped in stage %d", j.ID, j.stage))
	}
}

// endPhase ends the span of the step that just finished.
func (s *Schedd) endPhase(j *Job) {
	j.phase.End()
	j.phase = nil
}

// execute starts the payload on the claimed slot, unless the node crashed
// since the claim or the fault injector evicts the job.
func (s *Schedd) execute(j *Job) {
	sd := j.sd
	tr := trace.FromEnv(s.env)
	switch {
	case sd.epoch != j.epoch:
		// The node crashed between claim and start: the sandbox is gone.
		j.err = faults.Transientf("condor: job %d lost: node %s crashed before start", j.ID, sd.node.Name)
		s.sendOutput(j)
	case s.faults != nil && s.faults.Roll(faults.KindJobFailure, sd.node.Name):
		// Injected transient failure (starter crash, eviction): the job
		// dies partway through its execution.
		j.phase = tr.Start(j.claim, "condor", "payload", trace.L("status", "evicted"))
		j.stage = jobEvicted
		s.env.Delay(time.Duration(s.rng.Float64()*float64(time.Second)), j.step)
	default:
		j.phase = tr.Start(j.claim, "condor", "payload")
		j.ctx.Node, j.ctx.Span = sd.node, j.phase
		j.stage = jobRunning
		j.Run.Run(&j.ctx, j.ran)
	}
}

// payloadDone is the payload's report (bound as the job's ran): the chain
// resumes where a process running the payload would have returned from it.
func (s *Schedd) payloadDone(j *Job, err error) {
	if j.stage != jobRunning {
		panic(fmt.Sprintf("condor: job %d's payload reported in stage %d", j.ID, j.stage))
	}
	s.endPhase(j)
	if err == nil && j.sd.epoch != j.epoch {
		// The node crashed mid-execution; the charged work ran but its
		// results died with the machine (see the package faults modelling
		// note).
		err = faults.Transientf("condor: job %d lost: node %s crashed during execution", j.ID, j.sd.node.Name)
	}
	j.err = err
	s.sendOutput(j)
}

// sendOutput ships a successful job's output sandbox back to the submit
// node, then releases the claim.
func (s *Schedd) sendOutput(j *Job) {
	if j.err != nil || j.TransferOutputBytes == 0 {
		s.releaseClaim(j)
		return
	}
	j.phase = trace.FromEnv(s.env).Start(j.claim, "condor", "xfer-out", trace.L("node", j.sd.node.Name))
	j.stage = jobSentOut
	s.cl.Net.TransferThen(j.sd.node.Name, cluster.SubmitNodeName, j.TransferOutputBytes, j.step)
}

// releaseClaim hands the job's slot back and settles a successful job; a
// failed one first pays its requeue penalty.
func (s *Schedd) releaseClaim(j *Job) {
	sd := j.sd
	j.FinishedAt = s.env.Now()
	// Only release the slot into the epoch it was claimed from: after a
	// crash the reboot resets the slot count itself.
	if sd.epoch == j.epoch && !sd.offline {
		sd.free++
		sd.claimed[j.slot] = false
	}
	j.claim.End()
	s.running--
	s.finished++
	// Per-job mode: hand the freed slot to the first blocked job (priority
	// order) whose requirements some free node satisfies.
	if s.prm.PerJobNegotiation && !s.stopped {
		s.dispatchBlocked(1)
	}
	if j.err == nil {
		j.status = StatusCompleted
		s.settle(j)
		return
	}
	// A failed job pays a requeue penalty — the scheduler only notices the
	// failure and can re-match it after another negotiation cycle. The job
	// stays Running (from the queue's perspective, the claim is being
	// cleaned up) until the penalty elapses.
	j.phase = trace.FromEnv(s.env).Start(j.span, "condor", "requeue")
	j.stage = jobRequeued
	s.env.Delay(s.rng.Jitter(s.prm.EffectiveRequeueDelay(), s.prm.NegotiatorJitterFrac), j.step)
}

// settle ends the job's chain: it resolves the job's outcome, waking its
// waiters, and queues a released job's reuse behind them.
func (s *Schedd) settle(j *Job) {
	j.stage = jobIdle
	j.span.End()
	err := j.err
	j.err = nil
	j.done.Set(err)
	if j.released {
		s.env.Defer(j.recycle)
	}
}
