package core

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/wms"
	"repro/internal/workload"
)

// Property: any random DAG with any random mode mix runs to completion
// through the full stack, every task executes exactly once, and no task
// starts before its parents finish.
func TestPropertyRandomDAGExecutesCorrectly(t *testing.T) {
	f := func(seed uint64) bool {
		prm := fastParams()
		rng := sim.NewRNG(seed)
		n := 4 + rng.Intn(10)
		edgeProb := 0.1 + rng.Float64()*0.4
		s := NewStack(seed, prm)
		s.RegisterTransformation(workload.MatmulTransformation, 14<<20)

		wf := workload.Random(rng.Fork(), "fuzz", n, edgeProb, prm.MatrixBytes)
		if err := wf.Validate(); err != nil {
			t.Logf("seed %d: generated invalid workflow: %v", seed, err)
			return false
		}
		assign := wms.AssignFractions(rng.Fork(), 1, 1, 1)

		ok := true
		s.Env.Go("main", func(p *sim.Proc) {
			defer s.Shutdown()
			if err := s.DeployFunction(p, workload.MatmulTransformation, DefaultPolicy()); err != nil {
				t.Logf("seed %d: deploy: %v", seed, err)
				ok = false
				return
			}
			res, err := s.Engine.RunWorkflow(p, wf, assign)
			if err != nil {
				t.Logf("seed %d: run: %v", seed, err)
				ok = false
				return
			}
			if len(res.Tasks) != wf.Len() {
				t.Logf("seed %d: %d tasks recorded, want %d", seed, len(res.Tasks), wf.Len())
				ok = false
				return
			}
			for _, id := range wf.TaskIDs() {
				task := res.Task(wf, id)
				if task == nil {
					t.Logf("seed %d: task %s missing", seed, id)
					ok = false
					return
				}
				for _, par := range wf.Parents(id) {
					if res.Task(wf, par).FinishedAt > task.StartedAt {
						t.Logf("seed %d: task %s started before parent %s finished", seed, id, par)
						ok = false
						return
					}
				}
			}
		})
		s.Env.Run()
		return ok && s.Env.Alive() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Property: clustering any random DAG preserves executability and the
// parent-before-child invariant on the clustered graph.
func TestPropertyClusteredRandomDAGExecutes(t *testing.T) {
	f := func(seed uint64) bool {
		prm := fastParams()
		rng := sim.NewRNG(seed)
		n := 6 + rng.Intn(10)
		s := NewStack(seed, prm)
		s.RegisterTransformation(workload.MatmulTransformation, 14<<20)

		wf := workload.Random(rng.Fork(), "fuzz", n, 0.2, prm.MatrixBytes)
		cw, err := wms.ClusterVertical(wf, 1+rng.Intn(4))
		if err != nil {
			t.Logf("seed %d: clustering: %v", seed, err)
			return false
		}
		ok := true
		s.Env.Go("main", func(p *sim.Proc) {
			defer s.Shutdown()
			res, err := s.Engine.RunWorkflow(p, cw, wms.AssignAll(wms.ModeNative))
			if err != nil {
				t.Logf("seed %d: run: %v", seed, err)
				ok = false
				return
			}
			if len(res.Tasks) != cw.Len() {
				ok = false
			}
		})
		s.Env.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
