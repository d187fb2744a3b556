package wms

import (
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestClusterVerticalMergesChain(t *testing.T) {
	wf := chain(t, 10)
	cw, err := ClusterVertical(wf, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cw.Len() != 2 {
		t.Fatalf("clusters = %d, want 2 (10 tasks / 5)", cw.Len())
	}
	ids := cw.TaskIDs()
	for _, id := range ids {
		if !strings.Contains(id, "..") {
			t.Errorf("task %s is not a merged cluster", id)
		}
		task, _ := cw.Task(id)
		if task.effectiveWorkScale() != 5 {
			t.Errorf("cluster %s WorkScale = %f, want 5", id, task.effectiveWorkScale())
		}
	}
	// The second cluster depends on the first.
	if got := cw.Parents(ids[1]); len(got) != 1 || got[0] != ids[0] {
		t.Errorf("parents(%s) = %v", ids[1], got)
	}
	// Chain boundary file flows between clusters; intermediates are gone.
	first, _ := cw.Task(ids[0])
	if len(first.Outputs) != 1 {
		t.Errorf("first cluster outputs = %v, want only the boundary file", first.Outputs)
	}
	if err := cw.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterVerticalSizeOneIsIdentity(t *testing.T) {
	wf := chain(t, 4)
	cw, err := ClusterVertical(wf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cw != wf {
		t.Error("size-1 clustering did not return the original workflow")
	}
}

func TestClusterVerticalKeepsDiamondIntact(t *testing.T) {
	wf := NewWorkflow("diamond")
	one := int64(100)
	_ = wf.AddTask(TaskSpec{ID: "src", Transformation: "matmul", Outputs: []FileSpec{{LFN: "s", Bytes: one}}})
	_ = wf.AddTask(TaskSpec{ID: "l", Transformation: "matmul", Inputs: []FileSpec{{LFN: "s", Bytes: one}}, Outputs: []FileSpec{{LFN: "lo", Bytes: one}}})
	_ = wf.AddTask(TaskSpec{ID: "r", Transformation: "matmul", Inputs: []FileSpec{{LFN: "s", Bytes: one}}, Outputs: []FileSpec{{LFN: "ro", Bytes: one}}})
	_ = wf.AddTask(TaskSpec{ID: "sink", Transformation: "matmul", Inputs: []FileSpec{{LFN: "lo", Bytes: one}, {LFN: "ro", Bytes: one}}})
	_ = wf.AddDependency("src", "l")
	_ = wf.AddDependency("src", "r")
	_ = wf.AddDependency("l", "sink")
	_ = wf.AddDependency("r", "sink")
	cw, err := ClusterVertical(wf, 10)
	if err != nil {
		t.Fatal(err)
	}
	// src has two children and sink two parents: no linear segment longer
	// than one task exists, so nothing merges.
	if cw.Len() != 4 {
		t.Errorf("diamond clustered to %d tasks, want 4", cw.Len())
	}
}

func TestClusterVerticalStopsAtTransformationBoundary(t *testing.T) {
	wf := NewWorkflow("hetero")
	one := int64(100)
	_ = wf.AddTask(TaskSpec{ID: "a", Transformation: "matmul", Outputs: []FileSpec{{LFN: "x", Bytes: one}}})
	_ = wf.AddTask(TaskSpec{ID: "b", Transformation: "transpose", Inputs: []FileSpec{{LFN: "x", Bytes: one}}, Outputs: []FileSpec{{LFN: "y", Bytes: one}}})
	_ = wf.AddTask(TaskSpec{ID: "c", Transformation: "transpose", Inputs: []FileSpec{{LFN: "y", Bytes: one}}})
	_ = wf.AddDependency("a", "b")
	_ = wf.AddDependency("b", "c")
	cw, err := ClusterVertical(wf, 10)
	if err != nil {
		t.Fatal(err)
	}
	// a cannot merge with b (different transformations); b and c can.
	if cw.Len() != 2 {
		t.Errorf("tasks = %d, want 2 (a alone, b..c merged): %v", cw.Len(), cw.TaskIDs())
	}
}

func TestClusterVerticalBadSize(t *testing.T) {
	wf := chain(t, 2)
	if _, err := ClusterVertical(wf, 0); err == nil {
		t.Error("size 0 accepted")
	}
}

func TestClusteredChainExecutesFaster(t *testing.T) {
	// The point of clustering: a 6-task chain pays 6 scheduling round
	// trips unclustered but only 2 with clusters of 3.
	run := func(cluster int) time.Duration {
		s := newStack(t, nil)
		wf := chain(t, 6)
		if cluster > 1 {
			var err error
			wf, err = ClusterVertical(wf, cluster)
			if err != nil {
				t.Fatal(err)
			}
		}
		var makespan time.Duration
		s.env.Go("main", func(p *sim.Proc) {
			res, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeNative))
			if err != nil {
				t.Error(err)
			} else {
				makespan = res.Makespan()
			}
			s.shutdown()
		})
		s.env.Run()
		return makespan
	}
	plain := run(1)
	clustered := run(3)
	if clustered >= plain {
		t.Errorf("clustered %v not faster than plain %v", clustered, plain)
	}
}
