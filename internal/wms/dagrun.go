package wms

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/condor"
	"repro/internal/config"
	"repro/internal/knative"
	"repro/internal/trace"
)

// dagRun is one workflow execution: ready-set maintenance, dependency
// tracking, attempt/retry accounting, hedge tracking, and result assembly,
// driven by the release engine (release.go). The three execution modes
// (poll, decentralized, trigger) share all of it and differ only in *who*
// observes a completion and *when* successors are released.
//
// All per-task state lives in slices indexed by the workflow's declaration
// index. A task enters the ready set when its indegree countdown reaches
// zero; every driver submits from that one set in declaration order (the
// order of the seed engine's TaskIDs scan).
type dagRun struct {
	e   *Engine
	wf  *Workflow
	res *RunResult

	tasks   []taskState
	results []TaskResult // by declaration index; res.Tasks points here
	plan    *runPlan     // the workflow's ID ranks and task names
	ndone   int
	ready   []uint64  // bitset by declaration index: not done, not in flight, parents done
	due     []uint64  // poll: bitset by ID rank of the tasks the next tick settles
	flights []*flight // retired flights awaiting reuse

	tracer *trace.Tracer
	wfSpan *trace.Span

	mode    config.ExecMode
	done    func(*RunResult, error) // the caller's continuation
	err     error                   // the outcome, once over
	over    bool                    // the outcome is decided; pending steps bail
	waited  bool                    // the caller waits: an end is reported from the run queue
	armed   bool                    // poll: a tick is armed
	ticking bool                    // poll: inside a tick, which submits due hedges
	phase   time.Duration           // poll: the first tick's time, the origin of the tick grid
	prefix  string                  // trigger: "<workflow>/", the subject prefix
	trig    *knative.Trigger

	// tick, watch and report are pollTick, copySettled and the outcome's
	// report, bound once per run.
	tick, report func()
	watch        func(*condor.Job)
}

// taskState is one task's share of a run's state. It is also the task's
// exec descriptor: every condor job of the task carries a pointer to it as
// its payload (taskState.Run, in engine.go).
type taskState struct {
	d        *dagRun
	flight   *flight // live attempt; nil when not in flight
	retry    func()  // backedOff, bound at the task's first retry
	mode     Mode
	i        int32 // the task's declaration index
	attempts int32
	waiting  int32 // parents not yet done (the indegree countdown)
	done     bool
}

// newDagRun prepares a run: it assigns every task's mode in declaration
// order, plans a rescue's finished tasks out of the DAG (their recorded
// provenance carries over), and starts the indegree countdown of every
// other task, readying those with no unfinished parent.
func newDagRun(e *Engine, wf *Workflow, assign ModeAssigner, rescue *rescueState, res *RunResult, tracer *trace.Tracer, wfSpan *trace.Span) (*dagRun, error) {
	plan, err := wf.validateOnce()
	if err != nil {
		return nil, err
	}
	d := &dagRun{
		e:       e,
		wf:      wf,
		plan:    plan,
		res:     res,
		tasks:   make([]taskState, wf.Len()),
		results: make([]TaskResult, wf.Len()),
		ready:   make([]uint64, (wf.Len()+63)/64),
		due:     make([]uint64, (wf.Len()+63)/64),
		tracer:  tracer,
		wfSpan:  wfSpan,
	}
	d.tick, d.report, d.watch = d.pollTick, d.reportOutcome, d.copySettled
	for i, t := range wf.tasks {
		d.tasks[i] = taskState{d: d, i: int32(i), mode: assign(wf.Name, t.ID)}
	}
	if rescue != nil {
		for id, tr := range rescue.Done {
			i, exists := wf.index[id]
			if !exists {
				return nil, fmt.Errorf("wms: rescue records unknown task %q", id)
			}
			d.tasks[i].done = true
			d.ndone++
			res.Tasks[i] = tr
		}
	}
	for i := range d.tasks {
		t := &d.tasks[i]
		for _, par := range wf.parents[i] {
			if !d.tasks[par].done {
				t.waiting++
			}
		}
		if !t.done && t.waiting == 0 {
			d.setReady(int32(i))
		}
	}
	return d, nil
}

func (d *dagRun) setReady(i int32) { d.ready[i>>6] |= 1 << (i & 63) }

// inFlight counts the jobs of live flights — at abort time their results
// are discarded and the rescue DAG re-runs those tasks.
func (d *dagRun) inFlight() (jobs int) {
	for i := range d.tasks {
		if f := d.tasks[i].flight; f != nil {
			jobs += len(f.copies)
		}
	}
	return jobs
}

// winnerIndex returns the index of the earliest-finishing completed copy of
// the flight, or -1 when none has completed. Ties break to the lowest index
// (the primary before its hedges).
func (d *dagRun) winnerIndex(f *flight) int {
	winIdx := -1
	for i, c := range f.copies {
		if c.job.Status() != condor.StatusCompleted {
			continue
		}
		if winIdx < 0 || c.job.FinishedAt < f.copies[winIdx].job.FinishedAt {
			winIdx = i
		}
	}
	return winIdx
}

// observeWin resolves a task whose copy winIdx completed: the flight is
// retired, still-running losers are abandoned (they finish on their own and
// their results are discarded), a winning hedge marks the attempt span,
// the task's provenance is recorded, and children whose countdown reaches zero join
// the ready set. The attempt span closes now — in poll mode that is the
// poll tick after completion (its tail is the DAGMan-poll slack), in the
// event-driven modes it is the moment of observation. It returns how many
// children it released.
func (d *dagRun) observeWin(i int32, f *flight, winIdx int) (released int) {
	win := f.copies[winIdx].job
	t := &d.tasks[i]
	t.flight = nil
	t.done = true
	d.ndone++
	d.e.Budget.OnSuccess()
	id := d.wf.tasks[i].ID
	d.results[i] = TaskResult{
		ID:          id,
		Mode:        t.mode,
		Node:        win.Node(),
		Attempts:    int(t.attempts),
		SubmittedAt: win.SubmittedAt,
		StartedAt:   win.StartedAt,
		FinishedAt:  win.FinishedAt,
	}
	d.res.Tasks[i] = &d.results[i]
	for k, c := range f.copies {
		status := "abandoned"
		if k == winIdx {
			status = "won"
		}
		c.span.SetLabel("status", status)
		c.span.End()
		d.e.Pool.Release(c.job)
	}
	if f.copies[winIdx].span != nil { // a hedge copy won
		f.attempt.SetLabel("hedge-win", "1")
	}
	f.attempt.SetLabel("node", d.results[i].Node)
	f.attempt.End()
	d.freeFlight(f)
	for _, c := range d.wf.childs[i] {
		ct := &d.tasks[c]
		ct.waiting--
		if ct.waiting == 0 && !ct.done { // a rescue may hold a child but not its parent
			d.setReady(c)
			released++
		}
	}
	return released
}

// pruneFailed drops the flight's failed copies, ending their hedge spans.
// It reports whether the whole attempt is dead (no copies remain).
func (d *dagRun) pruneFailed(f *flight) (attemptDead bool) {
	kept := f.copies[:0]
	for _, c := range f.copies {
		if c.job.Status() == condor.StatusFailed {
			d.e.Pool.Release(c.job)
			c.span.SetLabel("status", "failed")
			c.span.End()
			continue
		}
		kept = append(kept, c)
	}
	f.copies = kept
	return len(kept) == 0
}

// failAttempt handles a task attempt with no live copies left: it retires
// the flight and ends its attempt span, then either authorizes a
// resubmission after the returned backoff, or returns the abortError
// (retries exhausted, or the engine-wide retry budget denied the
// resubmission) that ends the run.
func (d *dagRun) failAttempt(i int32, f *flight) (time.Duration, *abortError) {
	d.tasks[i].flight = nil
	f.attempt.SetLabel("status", "failed")
	f.attempt.End()
	d.freeFlight(f)
	attempts := int(d.tasks[i].attempts)
	switch {
	case attempts >= d.e.Retry.Attempts():
		return 0, d.abort(abortRetries, d.wf.tasks[i].ID, attempts)
	case !d.e.Budget.TryRetry():
		// Failures are outpacing successes: degrade gracefully instead of
		// joining the resubmission storm.
		return 0, d.abort(abortRetryBudget, d.wf.tasks[i].ID, attempts)
	}
	// Exponential backoff before resubmission, jittered so concurrent
	// workflows don't resubmit in lockstep.
	return d.e.Retry.Backoff(attempts, d.e.Env.Rand()), nil
}

// abort ends the run with a rescue capturing completed-task state. Jobs
// still in flight are abandoned (their results discarded); the rescue DAG
// re-runs those tasks.
func (d *dagRun) abort(reason, task string, attempts int) *abortError {
	d.wfSpan.SetLabel("status", "aborted")
	return &abortError{
		Task:     task,
		Attempts: attempts,
		Reason:   reason,
		Rescue:   newRescue(d.wf, d.res, d.inFlight()),
	}
}

// submitOne starts a new attempt of one task: it opens the attempt span,
// plans and submits the condor job, registers the flight, watches the job
// and arms the attempt's hedge timer.
func (d *dagRun) submitOne(i int32) error {
	task, t := d.wf.tasks[i], &d.tasks[i]
	var sp *trace.Span
	if d.tracer != nil {
		sp = d.tracer.Start(d.wfSpan, "wms", "task",
			trace.L("workflow", d.wf.Name), trace.L("task", task.ID),
			trace.L("mode", t.mode.String()),
			trace.L("attempt", strconv.Itoa(int(t.attempts)+1)))
	}
	job, err := d.submitTask(i, sp)
	if err != nil {
		sp.End()
		return err
	}
	t.attempts++
	f := d.newFlight()
	f.i, f.attempt = i, sp
	f.copies = append(f.copies, flightCopy{job: job})
	t.flight = f
	d.e.Pool.Then(job, d.watch)
	d.armHedges(f)
	return nil
}

// newFlight takes a flight off the free list, or makes one and binds its
// hedge step.
func (d *dagRun) newFlight() *flight {
	if n := len(d.flights); n > 0 {
		f := d.flights[n-1]
		d.flights[n-1] = nil
		d.flights = d.flights[:n-1]
		return f
	}
	f := &flight{}
	f.copies = f.first[:0]
	f.hedge = func() { d.hedge(f) }
	return f
}

// freeFlight clears a retired flight and recycles it, once no hedge timer
// is pending on it.
func (d *dagRun) freeFlight(f *flight) {
	clear(f.copies)
	f.copies, f.attempt = f.copies[:0], nil
	f.gen++
	if !f.pending {
		d.flights = append(d.flights, f)
	}
}

// hedgeDue reports whether flight f may take another speculative copy
// (HedgeMax, default 1, caps them per attempt) and how long until its
// newest copy has been in flight for HedgeAfter.
func (d *dagRun) hedgeDue(f *flight, now time.Duration) (wait time.Duration, ok bool) {
	if len(f.copies) > max(d.e.HedgeMax, 1) {
		return 0, false
	}
	return d.e.HedgeAfter - (now - f.copies[len(f.copies)-1].job.SubmittedAt), true
}

// submitHedgeCopy launches and watches one speculative duplicate of an
// in-flight task. The copies race; the settlement keeps whichever finishes
// first.
func (d *dagRun) submitHedgeCopy(i int32, f *flight) error {
	task := d.wf.tasks[i]
	var hs *trace.Span
	if d.tracer != nil {
		hs = d.tracer.Start(f.attempt, "wms", "hedge",
			trace.L("workflow", d.wf.Name), trace.L("task", task.ID),
			trace.L("copy", strconv.Itoa(len(f.copies))))
	}
	job, err := d.submitTask(i, hs)
	if err != nil {
		hs.End()
		return err
	}
	f.copies = append(f.copies, flightCopy{job: job, span: hs})
	d.e.Pool.Then(job, d.watch)
	return nil
}
