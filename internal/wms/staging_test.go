package wms

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

func withSharedFS(t *testing.T, s *stack) *storage.SharedFS {
	t.Helper()
	fs := storage.NewSharedFS(s.env, s.cl.Net, cluster.SubmitNodeName, 400e6)
	s.eng.Staging = StageSharedFS
	s.eng.FS = fs
	return fs
}

func TestSharedFSStagingNativeChain(t *testing.T) {
	s := newStack(t, nil)
	fs := withSharedFS(t, s)
	wf := chain(t, 3)
	s.env.Go("main", func(p *sim.Proc) {
		res, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeNative))
		if err != nil {
			t.Error(err)
		} else if res.Makespan() <= 0 {
			t.Error("bad makespan")
		}
		s.shutdown()
	})
	s.env.Run()
	// Every intermediate product landed on the share.
	for i := 1; i <= 3; i++ {
		if !fs.Has(lfn(i)) {
			t.Errorf("output %s missing from shared fs", lfn(i))
		}
	}
}

func TestSharedFSStagingServerlessCarriesReferencesOnly(t *testing.T) {
	s := newStack(t, nil)
	withSharedFS(t, s)
	wf := chain(t, 3)
	var sent, total int64
	s.env.Go("main", func(p *sim.Proc) {
		s.deployFunction(p, t)
		sentBase := s.cl.Net.BytesSent(cluster.SubmitNodeName)
		totalBase := s.cl.Net.TotalBytesSent()
		res, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeServerless))
		if err != nil {
			t.Error(err)
		} else if res.ModeCount(ModeServerless) != 3 {
			t.Errorf("serverless tasks = %d", res.ModeCount(ModeServerless))
		}
		sent = s.cl.Net.BytesSent(cluster.SubmitNodeName) - sentBase
		total = s.cl.Net.TotalBytesSent() - totalBase
		s.shutdown()
	})
	s.env.Run()
	// With references in the request bodies the fabric carries each input
	// once (share → function node) and each output once (function node →
	// share): no wrapper double hop. Total traffic is therefore the submit
	// share's reads plus the outputs written back, with only manifest
	// slack on top.
	outputs := int64(3 * 980000)
	if total > sent+outputs+200_000 {
		t.Errorf("total traffic %d > reads %d + writes %d: double data movement not avoided", total, sent, outputs)
	}
}

func TestSharedFSStagingMissingEngineFS(t *testing.T) {
	s := newStack(t, nil)
	s.eng.Staging = StageSharedFS // FS left nil
	wf := chain(t, 1)
	s.env.Go("main", func(p *sim.Proc) {
		if _, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeNative)); err == nil {
			t.Error("shared-fs staging without FS accepted")
		}
		s.shutdown()
	})
	s.env.Run()
}

func TestFaultInjectionRetriesToCompletion(t *testing.T) {
	s := newStack(t, nil)
	attachFaults(s).Schedule(faults.Fault{Kind: faults.KindJobFailure, Rate: 0.3})
	s.eng.Retry = config.RetryPolicy{MaxAttempts: 11}
	wf := chain(t, 5)
	s.env.Go("main", func(p *sim.Proc) {
		res, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeNative))
		if err != nil {
			t.Errorf("workflow failed despite retries: %v", err)
		} else {
			attempts := 0
			for _, task := range res.Tasks {
				attempts += task.Attempts
			}
			if attempts < 5 {
				t.Errorf("attempts = %d", attempts)
			}
		}
		s.shutdown()
	})
	s.env.Run()
}

func TestFaultInjectionAbortsWithoutRetries(t *testing.T) {
	s := newStack(t, nil)
	attachFaults(s).Schedule(faults.Fault{Kind: faults.KindJobFailure, Rate: 1}) // every job dies
	s.eng.Retry = config.RetryPolicy{MaxAttempts: 3}
	wf := chain(t, 1)
	s.env.Go("main", func(p *sim.Proc) {
		if _, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeNative)); err == nil {
			t.Error("workflow succeeded under 100% failure injection")
		}
		s.shutdown()
	})
	s.env.Run()
}

func TestWorkScaleMultipliesExecution(t *testing.T) {
	s := newStack(t, func(p *config.Params) {
		p.TaskJitterFrac = 0
		p.TaskDriftPerTask = 0
	})
	wf := NewWorkflow("scaled")
	_ = wf.AddTask(TaskSpec{ID: "small", Transformation: "matmul", WorkScale: 1})
	_ = wf.AddTask(TaskSpec{ID: "big", Transformation: "matmul", WorkScale: 4})
	s.env.Go("main", func(p *sim.Proc) {
		res, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeNative))
		if err != nil {
			t.Error(err)
		} else {
			smallExec := res.Task(wf, "small").FinishedAt - res.Task(wf, "small").StartedAt
			bigExec := res.Task(wf, "big").FinishedAt - res.Task(wf, "big").StartedAt
			ratio := float64(bigExec) / float64(smallExec)
			if ratio < 3.5 || ratio > 4.5 {
				t.Errorf("exec ratio = %.2f, want ≈4 (WorkScale)", ratio)
			}
		}
		s.shutdown()
	})
	s.env.Run()
}

func TestObjectStoreStagingServerless(t *testing.T) {
	s := newStack(t, nil)
	store := storage.NewObjectStore(s.env, s.cl.Net, cluster.SubmitNodeName, 400e6)
	s.eng.Staging = StageObjectStore
	s.eng.Store = store
	tr := trace.New(s.env)
	wf := chain(t, 3)
	s.env.Go("main", func(p *sim.Proc) {
		s.deployFunction(p, t)
		res, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeServerless))
		if err != nil {
			t.Error(err)
		} else if len(res.Tasks) != 3 {
			t.Errorf("tasks = %d", len(res.Tasks))
		}
		s.shutdown()
	})
	s.env.Run()
	gets := len(tracetest.Find(tr, tracetest.Match{Substrate: "storage", Name: "get"}))
	puts := len(tracetest.Find(tr, tracetest.Match{Substrate: "storage", Name: "put"}))
	// 3 tasks x 2 inputs GET and 1 output PUT each.
	if gets != 6 || puts != 3 {
		t.Errorf("ops = %d gets %d puts, want 6/3", gets, puts)
	}
}

func TestObjectStoreStagingMissingStore(t *testing.T) {
	s := newStack(t, nil)
	s.eng.Staging = StageObjectStore // Store left nil
	wf := chain(t, 1)
	s.env.Go("main", func(p *sim.Proc) {
		if _, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeNative)); err == nil {
			t.Error("object-store staging without Store accepted")
		}
		s.shutdown()
	})
	s.env.Run()
}

func TestRequireNodePinsTask(t *testing.T) {
	s := newStack(t, nil)
	wf := NewWorkflow("pin")
	_ = wf.AddTask(TaskSpec{ID: "a", Transformation: "matmul", RequireNode: "worker3"})
	_ = wf.AddTask(TaskSpec{ID: "b", Transformation: "matmul"})
	s.env.Go("main", func(p *sim.Proc) {
		res, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeNative))
		if err != nil {
			t.Error(err)
		} else if res.Task(wf, "a").Node != "worker3" {
			t.Errorf("pinned task ran on %s", res.Task(wf, "a").Node)
		}
		s.shutdown()
	})
	s.env.Run()
}
