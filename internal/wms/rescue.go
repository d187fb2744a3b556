package wms

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/sim"
)

// Rescue-DAG recovery, modelled on Pegasus/DAGMan: when a workflow aborts
// because a task exhausted its retry budget, the engine captures which tasks
// already finished (and, for checkpointed tasks, how far the aborted ones
// got) as a Rescue. Resubmitting the workflow with the rescue skips the
// finished tasks — the re-planned "rescue DAG" — and the retry budget starts
// fresh, so an operator can drive a workflow through repeated infrastructure
// incidents without re-running completed work.

// TaskCheckpoint is a checkpointed task's persisted progress.
type TaskCheckpoint struct {
	Total float64 `json:"total"`
	Done  float64 `json:"done"`
}

// Rescue is the persisted recovery state of an aborted workflow run.
type Rescue struct {
	// Workflow names the aborted workflow; resume validates it.
	Workflow string `json:"workflow"`
	// StartedAt is the original run's start time, so a resumed run's
	// makespan spans the whole recovery story.
	StartedAt time.Duration `json:"started_at"`
	// Aborted is the task whose retry budget ran out.
	Aborted string `json:"aborted"`
	// Abandoned counts jobs still in flight at abort time; their results
	// are discarded and the tasks re-run in the rescue DAG.
	Abandoned int `json:"abandoned"`
	// Done maps finished task IDs to their recorded results.
	Done map[string]*TaskResult `json:"done"`
	// Progress carries checkpoint state for unfinished tasks, keyed by
	// task ID.
	Progress map[string]TaskCheckpoint `json:"progress,omitempty"`
}

// Abort reasons carried by AbortError.Reason.
const (
	// AbortRetries: the task's own attempt budget ran out.
	AbortRetries = "retries"
	// AbortRetryBudget: the engine-wide retry budget denied a
	// resubmission (failures outpacing successes).
	AbortRetryBudget = "retry-budget"
	// AbortDeadline: the workflow's deadline passed mid-run.
	AbortDeadline = "deadline"
)

// AbortError is returned by RunWorkflow (and ResumeWorkflow) when the run
// cannot continue: a task exhausted its retries, the engine-wide retry
// budget denied a resubmission, or the workflow deadline passed. It carries
// the rescue state needed to resume.
type AbortError struct {
	// Task is the task that triggered the abort (empty for deadline
	// aborts, which are a property of the whole run).
	Task     string
	Attempts int
	// Reason is one of the Abort* constants; empty means AbortRetries
	// (the original abort class).
	Reason string
	Rescue *Rescue
}

func (e *AbortError) Error() string {
	switch e.Reason {
	case AbortDeadline:
		return fmt.Sprintf("wms: workflow %s exceeded its deadline (%d tasks completed; rescue available)",
			e.Rescue.Workflow, len(e.Rescue.Done))
	case AbortRetryBudget:
		return fmt.Sprintf("wms: task %s/%s denied resubmission by the retry budget after %d attempts (%d tasks completed; rescue available)",
			e.Rescue.Workflow, e.Task, e.Attempts, len(e.Rescue.Done))
	default:
		return fmt.Sprintf("wms: task %s/%s failed after %d attempts (%d tasks completed; rescue available)",
			e.Rescue.Workflow, e.Task, e.Attempts, len(e.Rescue.Done))
	}
}

// WriteRescue persists a rescue file as JSON (the on-disk artefact a real
// DAGMan writes next to the DAG).
func WriteRescue(path string, r *Rescue) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadRescue loads a rescue file written by WriteRescue.
func ReadRescue(path string) (*Rescue, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &Rescue{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("wms: rescue %s: %w", path, err)
	}
	return r, nil
}

// buildRescue snapshots recovery state at abort time.
func (e *Engine) buildRescue(wf *Workflow, res *RunResult, aborted string, abandoned int) *Rescue {
	r := &Rescue{
		Workflow:  wf.Name,
		StartedAt: res.StartedAt,
		Aborted:   aborted,
		Abandoned: abandoned,
		Done:      make(map[string]*TaskResult, len(res.Tasks)),
	}
	for id, tr := range res.Tasks {
		r.Done[id] = tr
	}
	prefix := wf.Name + "/"
	for key, st := range e.progress {
		if len(key) > len(prefix) && key[:len(prefix)] == prefix {
			if r.Progress == nil {
				r.Progress = make(map[string]TaskCheckpoint)
			}
			r.Progress[key[len(prefix):]] = TaskCheckpoint{Total: st.total, Done: st.done}
		}
	}
	return r
}

// restoreProgress reinstates checkpoint state from a rescue so resumed tasks
// continue from their last checkpoint instead of from scratch.
func (e *Engine) restoreProgress(wf *Workflow, r *Rescue) {
	if len(r.Progress) == 0 {
		return
	}
	if e.progress == nil {
		e.progress = make(map[string]*taskProgress)
	}
	for id, cp := range r.Progress {
		e.progress[wf.Name+"/"+id] = &taskProgress{total: cp.Total, done: cp.Done}
	}
}

// ResumeWorkflow re-runs an aborted workflow from its rescue state: finished
// tasks are skipped, checkpointed progress is reinstated, and every
// unfinished task gets a fresh retry budget. The returned result's makespan
// spans from the original run's start. The rescue must come from the same
// stack (staged outputs of finished tasks are assumed present on the shared
// data services).
func (e *Engine) ResumeWorkflow(p *sim.Proc, wf *Workflow, assign ModeAssigner, rescue *Rescue) (*RunResult, error) {
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
		var abort *AbortError
		if !errors.As(err, &abort) || stats.Rescues >= maxRescues {
			return nil, stats, err
		}
		stats.Rescues++
		stats.Abandoned += abort.Rescue.Abandoned
		res, err = e.ResumeWorkflow(p, wf, assign, abort.Rescue)
	}
	return res, stats, nil
}
