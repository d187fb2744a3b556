package wms

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/sim"
)

// Rescue-DAG recovery, modelled on Pegasus/DAGMan: when a workflow aborts
// because a task exhausted its retry budget, the engine captures which tasks
// already finished as a rescue state. Resubmitting the workflow with the rescue skips the
// finished tasks — the re-planned "rescue DAG" — and the retry budget starts
// fresh, so an operator can drive a workflow through repeated infrastructure
// incidents without re-running completed work.

// rescueState is the recovery state of an aborted workflow run.
type rescueState struct {
	// Workflow names the aborted workflow; resume validates it.
	Workflow string
	// StartedAt is the original run's start time, so a resumed run's
	// makespan spans the whole recovery story.
	StartedAt time.Duration
	// Abandoned counts jobs still in flight at abort time; their results
	// are discarded and the tasks re-run in the rescue DAG.
	Abandoned int
	// Done maps finished task IDs to their recorded results.
	Done map[string]*TaskResult
}

// Abort reasons carried by abortError.Reason.
const (
	// abortRetries: the task's own attempt budget ran out.
	abortRetries = "retries"
	// abortRetryBudget: the engine-wide retry budget denied a
	// resubmission (failures outpacing successes).
	abortRetryBudget = "retry-budget"
)

// abortError is returned by RunWorkflow (and resumeWorkflow) when the run
// cannot continue: a task exhausted its retries, or the engine-wide retry
// budget denied a resubmission. It carries the rescue state needed to
// resume.
type abortError struct {
	// Task is the task that triggered the abort.
	Task     string
	Attempts int
	// Reason is one of the Abort* constants; empty means abortRetries
	// (the original abort class).
	Reason string
	Rescue *rescueState
}

func (e *abortError) Error() string {
	switch e.Reason {
	case abortRetryBudget:
		return fmt.Sprintf("wms: task %s/%s denied resubmission by the retry budget after %d attempts (%d tasks completed; rescue available)",
			e.Rescue.Workflow, e.Task, e.Attempts, len(e.Rescue.Done))
	default:
		return fmt.Sprintf("wms: task %s/%s failed after %d attempts (%d tasks completed; rescue available)",
			e.Rescue.Workflow, e.Task, e.Attempts, len(e.Rescue.Done))
	}
}

// newRescue snapshots recovery state at abort time.
func newRescue(wf *Workflow, res *RunResult, abandoned int) *rescueState {
	r := &rescueState{
		Workflow:  wf.Name,
		StartedAt: res.StartedAt,
		Abandoned: abandoned,
		Done:      make(map[string]*TaskResult),
	}
	for _, tr := range res.Tasks {
		if tr != nil {
			r.Done[tr.ID] = tr
		}
	}
	return r
}

// resumeWorkflow re-runs an aborted workflow from its rescue state: finished
// tasks are skipped, and every unfinished task gets a fresh retry budget. The returned result's makespan
// spans from the original run's start. The rescue must come from the same
// stack (staged outputs of finished tasks are assumed present on the shared
// data services).
func (e *Engine) resumeWorkflow(p *sim.Proc, wf *Workflow, assign ModeAssigner, rescue *rescueState) (*RunResult, error) {
	if rescue == nil {
		return e.RunWorkflow(p, wf, assign)
	}
	if rescue.Workflow != wf.Name {
		return nil, fmt.Errorf("wms: rescue is for workflow %q, not %q", rescue.Workflow, wf.Name)
	}
	return e.await(p, wf, assign, rescue)
}

// RecoveryStats summarises a workflow's journey through rescue-DAG
// recovery.
type RecoveryStats struct {
	// Rescues is how many aborts were recovered from.
	Rescues int
	// Abandoned is the total number of in-flight jobs whose results were
	// discarded across those aborts.
	Abandoned int
}

// RunWorkflowWithRecovery drives a workflow to completion through up to
// maxRescues rescue-DAG recoveries: every abort is converted into a resume
// that skips finished tasks. It returns the final result, recovery
// statistics, and the terminal error if the budget runs out or a
// non-recoverable error occurs.
func (e *Engine) RunWorkflowWithRecovery(p *sim.Proc, wf *Workflow, assign ModeAssigner, maxRescues int) (*RunResult, RecoveryStats, error) {
	var stats RecoveryStats
	res, err := e.RunWorkflow(p, wf, assign)
	for err != nil {
		var abort *abortError
		if !errors.As(err, &abort) || stats.Rescues >= maxRescues {
			return nil, stats, err
		}
		stats.Rescues++
		stats.Abandoned += abort.Rescue.Abandoned
		res, err = e.resumeWorkflow(p, wf, assign, abort.Rescue)
	}
	return res, stats, nil
}
