package wms

import (
	"math/bits"
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
// fail or resubmit a dead attempt. Every copy's job carries the run's
// watch (condor.Schedd.Then), and the execution modes differ only in what
// it does with a settled copy:
//
//   - poll (config.ExecPoll, the default) is DAGMan's loop: the watch marks
//     the task due and arms the run's one tick on its grid (armTick), which
//     settles the due tasks, launches hedges and submits what is ready, so
//     a completed task's successors wait up to one poll interval (the
//     dagman-poll critical-path bucket); with nothing due, no tick fires;
//   - decentralized (Wukong) settles the task at once;
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
		phase := time.Duration(env.Rand().Float64() * float64(d.e.Prm.DAGManPoll))
		d.phase, d.armed = env.Now()+phase, true
		env.Delay(phase, d.tick)
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

// pollTick is one DAGMan poll: it settles the due tasks in task-ID order,
// the seed engine's in-flight scan order, submits their due hedges and
// then the ready set, and parks until something falls due again.
func (d *dagRun) pollTick() {
	d.armed = false
	for w, word := range d.due {
		for ; word != 0; word &= word - 1 {
			if d.settle(d.plan.byRank[w<<6|bits.TrailingZeros64(word)]); d.over {
				return
			}
		}
	}
	d.ticking = true
	for w, word := range d.due {
		d.due[w] = 0
		for ; word != 0; word &= word - 1 {
			if f := d.tasks[d.plan.byRank[w<<6|bits.TrailingZeros64(word)]].flight; f != nil && !f.pending {
				d.armHedges(f) // a due hedge, or one a pruned copy made room for
			}
		}
	}
	d.ticking = false
	if d.drain(); !d.over && d.ndone == d.wf.Len() {
		d.res.FinishedAt = d.e.Env.Now()
		d.end(nil)
	}
}

// markDue puts task i in the poll tick's due set and arms the tick.
func (d *dagRun) markDue(i int32, onNow bool) {
	r := d.plan.rank[i]
	d.due[r>>6] |= 1 << (r & 63)
	d.armTick(onNow)
}

// armTick arms the run's one poll tick, unless one is armed, at the first
// point of its grid at or after now: the drawn phase plus whole DAGManPoll
// intervals, where the seed engine's always-armed tick fired. That tick,
// armed one interval ahead, fired before any same-instant event armed
// since. So a timer armed inside a tick may take the tick at its own
// instant (onNow), and a settlement at a grid point takes the next one.
func (d *dagRun) armTick(onNow bool) {
	if d.armed {
		return
	}
	d.armed = true
	now, poll := d.e.Env.Now(), d.e.Prm.DAGManPoll
	at := now
	if poll > 0 {
		at = d.phase + (now-d.phase+poll-1)/poll*poll
		if at == now && !onNow {
			at += poll
		}
	}
	d.e.Env.At(at, d.tick)
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
	switch t := &d.tasks[i]; {
	case abort != nil:
		d.end(abort)
	case backoff <= 0 && d.mode == config.ExecPoll:
		d.setReady(i) // this tick resubmits it
	default:
		if t.retry == nil {
			t.retry = t.backedOff
		}
		d.e.Env.Delay(backoff, t.retry)
	}
}

// backedOff ends the task's retry backoff: it is ready again, for the
// next tick under poll.
func (t *taskState) backedOff() {
	d := t.d
	if d.over {
		return
	}
	d.setReady(t.i)
	if d.mode == config.ExecPoll {
		d.armTick(true)
		return
	}
	d.drain()
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

// drain submits the ready tasks in declaration order, the seed engine's
// TaskIDs scan order. A submission error ends the run.
func (d *dagRun) drain() {
	for w, word := range d.ready {
		for ; word != 0 && !d.over; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			d.ready[w] &^= 1 << b
			if err := d.submitOne(int32(w<<6 | b)); err != nil {
				d.end(err)
			}
		}
	}
}

// copySettled is the run's watch: it runs when one copy's job settles.
func (d *dagRun) copySettled(j *condor.Job) {
	if d.over {
		return
	}
	t := j.Run.(*taskState)
	switch d.mode {
	case config.ExecPoll:
		if t.flight != nil {
			d.markDue(t.i, false)
		}
	case config.ExecTrigger:
		node := j.Node()
		if node == "" {
			node = cluster.SubmitNodeName
		}
		d.e.Broker.PublishThen(node, knative.Event{Type: taskSettledEventType, Source: node, Subject: t.name()}, nil)
	default:
		d.settle(t.i)
	}
}

// deliver is the run's trigger handler.
func (d *dagRun) deliver(ev knative.Event) {
	if i, ok := d.wf.index[strings.TrimPrefix(ev.Subject, d.prefix)]; ok {
		d.settle(i)
	}
}

// armHedges arms one hedge timer per attempt. Its first step runs where a
// process spawned now would run, or under poll at once, inside the tick.
func (d *dagRun) armHedges(f *flight) {
	if d.e.HedgeAfter > 0 {
		f.pending, f.armed = true, f.gen
		if d.mode == config.ExecPoll {
			d.hedge(f)
			return
		}
		d.e.Env.Defer(f.hedge)
	}
}

// hedge submits the attempt's due copies (under poll, marks the task for
// the tick that does) and re-arms for the next, until the attempt settles
// or reaches HedgeMax. A timer whose attempt retired while it was pending
// recycles the flight and does nothing else.
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
		if d.mode == config.ExecPoll && !d.ticking {
			d.markDue(f.i, true) // the tick submits it
			return
		}
		if err := d.submitHedgeCopy(f.i, f); err != nil {
			d.end(err)
			return
		}
	}
}
