package wms

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/condor"
	"repro/internal/config"
	"repro/internal/crt"
	"repro/internal/knative"
	"repro/internal/kube"
	"repro/internal/registry"
	"repro/internal/sim"
)

// stack is the full execution substrate an engine test needs.
type stack struct {
	env  *sim.Env
	prm  config.Params
	cl   *cluster.Cluster
	reg  *registry.Registry
	rts  crt.Set
	pool *condor.Schedd
	k    *kube.Kube
	kn   *knative.Knative
	eng  *Engine
}

func newStack(t *testing.T, mut func(*config.Params)) *stack {
	t.Helper()
	prm := config.Default()
	prm.NegotiationDelay = 2 * time.Second
	prm.NegotiatorJitterFrac = 0
	prm.CondorJitterFrac = 0
	prm.DAGManPoll = time.Second
	if mut != nil {
		mut(&prm)
	}
	env := sim.NewEnv(1)
	cl := cluster.New(env, prm)
	reg := registry.New(cl.Net)
	reg.Push(registry.NewImage("matmul-img", prm.ImageLayersBytes[:1], prm.ImageLayersBytes[1]))
	rts := crt.NewSet(env, cl, reg, prm)
	pool := condor.New(env, cl, prm)
	pool.Start()
	k := kube.New(env, cl, rts, prm)
	k.Start()
	kn := knative.New(env, cl, k, prm)

	cat := NewCatalogs()
	cat.AddTransformation(Transformation{Name: "matmul", Image: "matmul-img"})

	eng := &Engine{
		Env:      env,
		Cl:       cl,
		Pool:     pool,
		Runtimes: rts,
		Reg:      reg,
		Catalogs: cat,
		Prm:      prm,
		Retry:    config.RetryPolicy{MaxAttempts: 2},
	}
	return &stack{env: env, prm: prm, cl: cl, reg: reg, rts: rts, pool: pool, k: k, kn: kn, eng: eng}
}

func (s *stack) shutdown() {
	s.kn.Shutdown()
	s.k.Shutdown()
	s.pool.Shutdown()
}

func (s *stack) deployFunction(p *sim.Proc, t *testing.T) *knative.Service {
	t.Helper()
	svc, err := s.kn.Deploy(p, knative.ServiceSpec{
		Name:                 "matmul",
		Image:                "matmul-img",
		ContainerConcurrency: 8,
		InitialScale:         1,
		MinScale:             1,
		CPURequest:           1,
		MemMB:                512,
		CapCores:             1,
		AppInit:              1200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.eng.Services = func(name string) (*knative.Service, bool) {
		if name == "matmul" {
			return svc, true
		}
		return nil, false
	}
	return svc
}

func TestNativeChainRunsInOrder(t *testing.T) {
	s := newStack(t, nil)
	wf := chain(t, 5)
	var res *RunResult
	s.env.Go("main", func(p *sim.Proc) {
		r, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeNative))
		if err != nil {
			t.Error(err)
			s.shutdown()
			return
		}
		res = r
		s.shutdown()
	})
	s.env.Run()
	if res == nil {
		t.Fatal("no result")
	}
	if len(res.Tasks) != 5 {
		t.Fatalf("tasks recorded = %d", len(res.Tasks))
	}
	for i := 1; i < 5; i++ {
		prev, cur := res.Task(wf, taskID(i-1)), res.Task(wf, taskID(i))
		if cur.StartedAt < prev.FinishedAt {
			t.Errorf("task %d started %v before parent finished %v", i, cur.StartedAt, prev.FinishedAt)
		}
	}
	if res.Makespan() <= 0 {
		t.Error("non-positive makespan")
	}
	if res.ModeCount(ModeNative) != 5 {
		t.Errorf("native count = %d", res.ModeCount(ModeNative))
	}
}

func TestSequentialTaskPaysNegotiationCycle(t *testing.T) {
	s := newStack(t, func(p *config.Params) {
		p.NegotiationDelay = 10 * time.Second
	})
	wf := chain(t, 3)
	s.env.Go("main", func(p *sim.Proc) {
		res, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeNative))
		if err != nil {
			t.Error(err)
		} else if res.Makespan() < 30*time.Second {
			// Each of the 3 sequential tasks waits for a matchmaking cycle —
			// the mechanism behind Fig. 6's 250 s makespans.
			t.Errorf("makespan %v < 30s; negotiation cycles not dominating", res.Makespan())
		}
		s.shutdown()
	})
	s.env.Run()
}

func TestContainerModeCreatesAndDestroysPerTask(t *testing.T) {
	s := newStack(t, nil)
	wf := chain(t, 4)
	s.env.Go("main", func(p *sim.Proc) {
		if _, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeContainer)); err != nil {
			t.Error(err)
		}
		s.shutdown()
	})
	s.env.Run()
	created, live := 0, 0
	for _, rt := range s.rts {
		created += rt.CreatedTotal()
		live += rt.Live()
	}
	if created != 4 {
		t.Errorf("containers created = %d, want 4 (one per task)", created)
	}
	if live != 0 {
		t.Errorf("leaked containers: %d", live)
	}
}

func TestContainerModeTransfersImagePerTask(t *testing.T) {
	s := newStack(t, nil)
	wf := chain(t, 3)
	s.env.Go("main", func(p *sim.Proc) {
		if _, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeContainer)); err != nil {
			t.Error(err)
		}
		s.shutdown()
	})
	s.env.Run()
	img, _ := s.reg.Image("matmul-img")
	sent := s.cl.Net.BytesSent(cluster.SubmitNodeName)
	if sent < 3*img.Bytes() {
		t.Errorf("submit sent %d bytes, want ≥ 3 image copies (%d)", sent, 3*img.Bytes())
	}
}

func TestServerlessModeReusesContainer(t *testing.T) {
	s := newStack(t, nil)
	wf := chain(t, 5)
	s.env.Go("main", func(p *sim.Proc) {
		svc := s.deployFunction(p, t)
		res, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeServerless))
		if err != nil {
			t.Error(err)
		} else {
			if res.ModeCount(ModeServerless) != 5 {
				t.Errorf("serverless count = %d", res.ModeCount(ModeServerless))
			}
			if svc.Requests != 5 {
				t.Errorf("service saw %d requests, want 5", svc.Requests)
			}
		}
		s.shutdown()
	})
	s.env.Run()
	created := 0
	for _, rt := range s.rts {
		created += rt.CreatedTotal()
	}
	if created != 1 {
		t.Errorf("containers created = %d, want 1 (the reused function pod)", created)
	}
}

func TestServerlessWithoutResolverFails(t *testing.T) {
	s := newStack(t, nil)
	wf := chain(t, 1)
	s.env.Go("main", func(p *sim.Proc) {
		_, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeServerless))
		if err == nil || !strings.Contains(err.Error(), "no service resolver") {
			t.Errorf("err = %v", err)
		}
		s.shutdown()
	})
	s.env.Run()
}

func TestUnknownTransformationFails(t *testing.T) {
	s := newStack(t, nil)
	wf := NewWorkflow("w")
	_ = wf.AddTask(TaskSpec{ID: "a", Transformation: "mystery"})
	s.env.Go("main", func(p *sim.Proc) {
		if _, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeNative)); err == nil {
			t.Error("unknown transformation accepted")
		}
		s.shutdown()
	})
	s.env.Run()
}

func TestFailedTaskAbortsAfterRetries(t *testing.T) {
	s := newStack(t, nil)
	wf := chain(t, 1)
	s.env.Go("main", func(p *sim.Proc) {
		svc := s.deployFunction(p, t)
		_ = svc
		s.kn.Shutdown() // every invocation will now fail
		_, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeServerless))
		if err == nil || !strings.Contains(err.Error(), "failed after") {
			t.Errorf("err = %v", err)
		}
		s.k.Shutdown()
		s.pool.Shutdown()
	})
	s.env.Run()
}

func TestDiamondParallelism(t *testing.T) {
	s := newStack(t, nil)
	wf := NewWorkflow("diamond")
	one := int64(980000)
	_ = wf.AddTask(TaskSpec{ID: "src", Transformation: "matmul", Outputs: []FileSpec{{LFN: "s", Bytes: one}}})
	_ = wf.AddTask(TaskSpec{ID: "l", Transformation: "matmul", Inputs: []FileSpec{{LFN: "s", Bytes: one}}, Outputs: []FileSpec{{LFN: "lo", Bytes: one}}})
	_ = wf.AddTask(TaskSpec{ID: "r", Transformation: "matmul", Inputs: []FileSpec{{LFN: "s", Bytes: one}}, Outputs: []FileSpec{{LFN: "ro", Bytes: one}}})
	_ = wf.AddTask(TaskSpec{ID: "sink", Transformation: "matmul", Inputs: []FileSpec{{LFN: "lo", Bytes: one}, {LFN: "ro", Bytes: one}}})
	_ = wf.AddDependency("src", "l")
	_ = wf.AddDependency("src", "r")
	_ = wf.AddDependency("l", "sink")
	_ = wf.AddDependency("r", "sink")
	s.env.Go("main", func(p *sim.Proc) {
		res, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeNative))
		if err != nil {
			t.Error(err)
		} else {
			l, r := res.Task(wf, "l"), res.Task(wf, "r")
			// The two branches are matched in the same negotiation cycle.
			if d := l.StartedAt - r.StartedAt; d > 2*time.Second || d < -2*time.Second {
				t.Errorf("branches not concurrent: l@%v r@%v", l.StartedAt, r.StartedAt)
			}
			sink := res.Task(wf, "sink")
			if sink.StartedAt < l.FinishedAt || sink.StartedAt < r.FinishedAt {
				t.Error("sink started before both branches finished")
			}
		}
		s.shutdown()
	})
	s.env.Run()
}
