package core

import (
	"repro/internal/knative"
	"repro/internal/sim"
	"repro/internal/wms"
)

// This file is the "dynamic" in dynamic HPC workflows: instead of batch
// submission, workflows are planned and launched in response to events
// (data arrival, instrument output) flowing through Knative Eventing —
// the event-driven architecture the paper's abstract credits with
// "aligning with the dynamic nature of scientific workloads".

// DynamicRun records one event-triggered workflow execution.
type DynamicRun struct {
	Result *wms.RunResult
	Err    error
}

// DynamicRuns collects the executions a WatchAndRun trigger has launched.
type DynamicRuns struct {
	wg   *sim.WaitGroup
	runs []*DynamicRun
}

// Runs returns the completed (and failed) executions so far, in the order
// their events were delivered.
func (d *DynamicRuns) Runs() []*DynamicRun { return d.runs }

// Wait blocks until every workflow triggered so far has finished.
func (d *DynamicRuns) Wait(p *sim.Proc) { d.wg.Wait(p) }

// WorkflowBuilder derives a workflow (and its mode assignment) from an
// event — e.g. a chain whose first input is the file the event announces.
type WorkflowBuilder func(ev knative.Event) (*wms.Workflow, wms.ModeAssigner)

// WatchAndRun subscribes to the broker: every event of eventType is turned
// into a workflow by build and run through the engine immediately. The
// returned DynamicRuns tracks completions.
func (s *Stack) WatchAndRun(broker *knative.Broker, eventType string, build WorkflowBuilder) *DynamicRuns {
	d := &DynamicRuns{wg: sim.NewWaitGroup(s.Env)}
	broker.Subscribe(eventType, "", func(ev knative.Event) {
		wf, assign := build(ev)
		run := &DynamicRun{}
		d.runs = append(d.runs, run)
		d.wg.Add(1)
		s.Engine.RunWorkflowThen(wf, assign, func(res *wms.RunResult, err error) {
			run.Result, run.Err = res, err
			d.wg.Done()
		})
	})
	return d
}
