package wms

import "repro/internal/sim"

// What the external tests in package wms_test read of an abort and its
// resume, and of a run's hedges.

type AbortError = abortError

var HedgeCounts = hedgeCounts

func (e *Engine) ResumeWorkflow(p *sim.Proc, wf *Workflow, assign ModeAssigner, r *rescueState) (*RunResult, error) {
	return e.resumeWorkflow(p, wf, assign, r)
}
