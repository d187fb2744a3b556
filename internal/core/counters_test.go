package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/wms"
	"repro/internal/workload"
)

// pollRunEvents is the event count of one seeded paper-fig5 simulation
// under poll release: the §V-C workload of ten concurrent ten-task chains
// on one stack with paper parameters, its tasks spread over all three
// environments. A poll tick fires only when a settlement, a hedge or a
// retry backoff is due; a change that brings back idle ticks, or any other
// change to the kernel's work, moves it. A change that moves it on purpose
// updates it and says why.
const pollRunEvents = 1689

// TestPollRunEventsPinned pins the deterministic work of one paper-fig5
// simulation, so a host-independent counter guards the poll path's cost.
func TestPollRunEventsPinned(t *testing.T) {
	prm := config.Default()
	prm.ExecMode = config.ExecPoll.String()
	s := NewStack(1, prm)
	s.RegisterTransformation(workload.MatmulTransformation, prm.ImageLayersBytes[len(prm.ImageLayersBytes)-1])
	wfs := workload.ConcurrentChains(prm.WorkflowsPerRun, prm.TasksPerWorkflow, prm.MatrixBytes)
	var tasks int
	s.Env.Go("main", func(p *sim.Proc) {
		defer s.Shutdown()
		if err := s.DeployFunction(p, workload.MatmulTransformation, ReusePolicy()); err != nil {
			t.Error(err)
			return
		}
		assign := wms.AssignFractions(s.Env.Rand().Fork(), 0.25, 0.25, 0.5)
		res, err := s.RunConcurrentWorkflows(p, wfs, assign)
		if err != nil {
			t.Error(err)
			return
		}
		for _, run := range res.Runs {
			tasks += len(run.Tasks)
		}
	})
	s.Env.Run()
	if want := prm.WorkflowsPerRun * prm.TasksPerWorkflow; tasks != want {
		t.Fatalf("%d tasks settled, want %d", tasks, want)
	}
	if got := s.Env.Stats().Events; got != pollRunEvents {
		t.Errorf("one poll-mode paper-fig5 simulation fired %d events, pinned %d", got, pollRunEvents)
	}
}
