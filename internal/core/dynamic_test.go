package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/knative"
	"repro/internal/sim"
	"repro/internal/wms"
	"repro/internal/workload"
)

func TestWatchAndRunLaunchesWorkflowPerEvent(t *testing.T) {
	prm := fastParams()
	s := NewStack(21, prm)
	s.RegisterTransformation(workload.MatmulTransformation, 14<<20)

	var dyn *DynamicRuns
	s.Env.Go("main", func(p *sim.Proc) {
		defer s.Shutdown()
		if err := s.DeployFunction(p, workload.MatmulTransformation, ReusePolicy()); err != nil {
			t.Error(err)
			return
		}
		broker := s.Knative.NewBroker("default")
		n := 0
		dyn = s.WatchAndRun(broker, "data.arrived",
			func(ev knative.Event) (*wms.Workflow, wms.ModeAssigner) {
				n++
				return workload.Chain(fmt.Sprintf("d%d", n), 2, prm.MatrixBytes), wms.AssignAll(wms.ModeServerless)
			})
		for i := 0; i < 3; i++ {
			if err := broker.Publish(p, "worker1", knative.Event{Type: "data.arrived"}); err != nil {
				t.Error(err)
			}
			p.Sleep(time.Second)
		}
		// An unrelated event type must not trigger anything.
		_ = broker.Publish(p, "worker1", knative.Event{Type: "noise"})
		dyn.Wait(p)
	})
	s.Env.Run()

	if len(dyn.Runs()) != 3 {
		t.Fatalf("runs = %d, want 3", len(dyn.Runs()))
	}
	for _, run := range dyn.Runs() {
		if run.Err != nil {
			t.Errorf("run failed: %v", run.Err)
			continue
		}
		if run.Result.ModeCount(wms.ModeServerless) != 2 {
			t.Errorf("run %s serverless tasks = %d", run.Result.Workflow, run.Result.ModeCount(wms.ModeServerless))
		}
	}
}

func TestWatchAndRunOverlappingEvents(t *testing.T) {
	prm := fastParams()
	s := NewStack(22, prm)
	s.RegisterTransformation(workload.MatmulTransformation, 14<<20)

	var dyn *DynamicRuns
	var overlapped bool
	s.Env.Go("main", func(p *sim.Proc) {
		defer s.Shutdown()
		if err := s.DeployFunction(p, workload.MatmulTransformation, DefaultPolicy()); err != nil {
			t.Error(err)
			return
		}
		broker := s.Knative.NewBroker("default")
		n := 0
		dyn = s.WatchAndRun(broker, "data.arrived",
			func(ev knative.Event) (*wms.Workflow, wms.ModeAssigner) {
				n++
				return workload.Chain(fmt.Sprintf("o%d", n), 3, prm.MatrixBytes), wms.AssignAll(wms.ModeServerless)
			})
		// Publish back to back: the runs must overlap in virtual time.
		for i := 0; i < 3; i++ {
			_ = broker.Publish(p, "worker1", knative.Event{Type: "data.arrived"})
		}
		dyn.Wait(p)
		// Overlap check: earliest finish after latest start.
		var minFin, maxStart time.Duration = 1 << 62, 0
		for _, run := range dyn.Runs() {
			if run.Result.StartedAt > maxStart {
				maxStart = run.Result.StartedAt
			}
			if run.Result.FinishedAt < minFin {
				minFin = run.Result.FinishedAt
			}
		}
		overlapped = maxStart < minFin
	})
	s.Env.Run()
	if !overlapped {
		t.Error("event-triggered workflows did not overlap")
	}
}
