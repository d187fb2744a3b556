package wms

import (
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/condor"
	"repro/internal/config"
	"repro/internal/knative"
	"repro/internal/trace"
)

// taskSettledEventType is the CloudEvents type published for every task copy
// that settles (completes or fails) under the trigger execution mode. The
// event subject is "<workflow>/<task>"; the per-run trigger filters on the
// workflow prefix.
const taskSettledEventType = "dev.repro.wms.task.settled"

// The release engine. A run is a chain of continuations around one
// release decision, settle: resolve a winning copy, prune failed copies,
// fail or resubmit a dead attempt. The execution modes differ only in who
// calls it and when:
//
//   - poll (config.ExecPoll, the default) is DAGMan's loop: a recurring
//     tick every DAGManPoll settles each in-flight task, launches hedges
//     and submits what is ready, so a completed task's successors wait up
//     to one poll interval (the dagman-poll critical-path bucket);
//   - decentralized (Wukong) settles a task the moment one of its copies
//     settles;
//   - trigger (Triggerflow) publishes a task-settled event from the copy's
//     node through the knative broker, and the run's filtered trigger
//     settles the task on delivery.
//
// Every step runs in the run-queue slot where a process waiting through the
// same steps would run, so the run order, and with it every RNG draw and
// span, is the one the seed-compat goldens were recorded with: a step that
// ends a sleep runs inline in its event, one that ends a wait on a job's
// settlement runs from the back of the run queue.

// begin takes the run's first step.
func (d *dagRun) begin() {
	env := d.e.Env
	if d.mode == config.ExecPoll {
		// DAGMan instances start with independent poll phases (they are
		// separate condor_dagman processes in reality); without this,
		// concurrent workflows lock step to the negotiation cycle and
		// per-task overheads vanish into the quantization.
		env.Delay(time.Duration(env.Rand().Float64()*float64(d.e.Prm.DAGManPoll)), d.tick)
		return
	}
	if d.ndone == d.wf.Len() { // a rescue finished everything
		d.res.FinishedAt = env.Now()
		d.end(nil)
		return
	}
	if d.mode == config.ExecTrigger {
		d.prefix = d.wf.Name + "/"
		d.trig = d.e.Broker.Subscribe(taskSettledEventType, d.prefix, d.deliver)
	}
	d.drain()
	d.waited = !d.over
}

// end decides the run's outcome once; every pending step then bails. The
// caller's continuation runs where a process blocked in RunWorkflow would
// resume: inline in a poll tick or before an event-driven run has waited,
// and otherwise from the back of the run queue.
func (d *dagRun) end(err error) {
	if d.over {
		return
	}
	d.over, d.err = true, err
	if d.waited {
		d.e.Env.Defer(d.report)
	} else {
		d.report()
	}
}

// pollTick is one DAGMan poll. The first, at the drawn phase, only
// submits the ready tasks.
func (d *dagRun) pollTick() {
	now := d.e.Env.Now()
	if d.ticked {
		d.scan = append(d.scan[:0], d.inflight...)
		for _, r := range d.scan {
			if d.settle(d.plan.byRank[r]); d.over {
				return
			}
		}
		if err := d.submitHedges(now); err != nil {
			d.end(err)
			return
		}
	}
	d.ticked = true
	if err := d.submitReady(now, nil); err != nil {
		d.end(err)
		return
	}
	if d.ndone == d.wf.Len() {
		d.res.FinishedAt = now
		d.end(nil)
		return
	}
	d.e.Env.Delay(d.e.Prm.DAGManPoll, d.tick)
}

// settle is the release decision for task i: a completed copy wins (the
// earliest-finishing one; still-running losers are abandoned), failed
// copies are dropped, and an attempt with no copy left fails: the run
// aborts, or the task is resubmitted after its backoff. It is idempotent,
// so a late event or an abandoned copy's settlement finds the flight gone
// and does nothing.
func (d *dagRun) settle(i int32) {
	f := d.tasks[i].flight
	if d.over || f == nil {
		return
	}
	if w := d.winnerIndex(f); w >= 0 {
		d.release(i, f, w)
		return
	}
	if !d.pruneFailed(f) {
		return // live copies remain; their settlements decide
	}
	backoff, abort := d.failAttempt(i, f)
	switch {
	case abort != nil:
		d.end(abort)
	case d.mode == config.ExecPoll:
		// A later tick resubmits once the backoff has passed.
		d.tasks[i].notBefore = d.e.Env.Now() + backoff
		d.setReady(i)
	default:
		// The observer itself waits out the backoff and resubmits.
		d.e.Env.Delay(backoff, func() {
			if !d.over {
				d.setReady(i)
				d.drain()
			}
		})
	}
}

// release resolves task i's win. Poll leaves the successors to the rest of
// its tick; the event-driven modes mark the release with a span and submit
// them at once, or end the run with its last task.
func (d *dagRun) release(i int32, f *flight, w int) {
	if d.mode == config.ExecPoll {
		d.observeWin(i, f, w)
		return
	}
	rel := d.tracer.Start(d.wfSpan, "wms", "release",
		trace.L("workflow", d.wf.Name), trace.L("task", d.wf.tasks[i].ID))
	released := d.observeWin(i, f, w)
	if rel != nil {
		rel.SetLabel("released", strconv.Itoa(released))
	}
	rel.End()
	if d.ndone == d.wf.Len() {
		d.res.FinishedAt = d.e.Env.Now()
		d.end(nil)
		return
	}
	d.drain() // newly ready successors
}

// drain submits ready tasks in the event-driven modes, watching each new
// attempt's job and arming its hedge timer. A submission error ends the
// run.
func (d *dagRun) drain() {
	if d.over {
		return
	}
	if err := d.submitReady(d.e.Env.Now(), d.launched); err != nil {
		d.end(err)
	}
}

func (d *dagRun) launched(f *flight) {
	d.e.Pool.Then(f.copies[0].job, d.watch)
	d.armHedges(f)
}

// copySettled runs when one copy's job settles. Decentralized release
// settles the task right here; trigger release publishes the settled event
// from the copy's node, and the run's trigger settles the task.
func (d *dagRun) copySettled(j *condor.Job) {
	if d.over {
		return
	}
	t := j.Run.(*taskState)
	if d.mode != config.ExecTrigger {
		d.settle(t.i)
		return
	}
	node := j.Node()
	if node == "" {
		node = cluster.SubmitNodeName
	}
	d.e.Broker.PublishThen(node, knative.Event{Type: taskSettledEventType, Source: node, Subject: t.name()}, nil)
}

// deliver is the run's trigger handler.
func (d *dagRun) deliver(ev knative.Event) {
	if i, ok := d.wf.index[strings.TrimPrefix(ev.Subject, d.prefix)]; ok {
		d.settle(i)
	}
}

// submitHedges is poll's hedge scan: an in-flight task whose newest copy
// has sat longer than HedgeAfter gets a speculative duplicate, up to
// HedgeMax copies per attempt.
func (d *dagRun) submitHedges(now time.Duration) error {
	if d.e.HedgeAfter <= 0 {
		return nil
	}
	for _, r := range d.inflight {
		i := d.plan.byRank[r]
		f := d.tasks[i].flight
		if wait, ok := d.hedgeDue(f, now); ok && wait <= 0 {
			if _, err := d.submitHedgeCopy(i, f); err != nil {
				return err
			}
		}
	}
	return nil
}

// armHedges is the event-driven form of the hedge scan: one timer per
// attempt, first run where a process spawned now would run.
func (d *dagRun) armHedges(f *flight) {
	if d.e.HedgeAfter > 0 {
		f.pending, f.armed = true, f.gen
		d.e.Env.Defer(f.hedge)
	}
}

// hedge submits the attempt's due copies and re-arms for the next, until
// the attempt settles or reaches HedgeMax. A timer whose attempt retired
// while it was pending recycles the flight and does nothing else.
func (d *dagRun) hedge(f *flight) {
	f.pending = false
	if f.armed != f.gen {
		d.flights = append(d.flights, f)
		return
	}
	for !d.over && f.armed == f.gen {
		wait, ok := d.hedgeDue(f, d.e.Env.Now())
		if !ok {
			return
		}
		if wait > 0 {
			f.pending = true
			d.e.Env.After(wait, f.hedge) // re-check then: the flight may have settled or grown
			return
		}
		job, err := d.submitHedgeCopy(f.i, f)
		if err != nil {
			d.end(err)
			return
		}
		d.e.Pool.Then(job, d.watch)
	}
}
