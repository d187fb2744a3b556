package kube

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/crt"
	"repro/internal/registry"
	"repro/internal/sim"
)

type fixture struct {
	env *sim.Env
	cl  *cluster.Cluster
	reg *registry.Registry
	k   *Kube
	prm config.Params
}

// podsOnNode counts live pods bound to a node.
func (k *Kube) podsOnNode(node string) int {
	if w := k.worker(node); w != nil {
		return k.podsOn[w.Index]
	}
	return 0
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	env := sim.NewEnv(1)
	prm := config.Default()
	cl := cluster.New(env, prm)
	reg := registry.New(cl.Net)
	reg.Push(registry.NewImage("matmul", prm.ImageLayersBytes[:1], prm.ImageLayersBytes[1]))
	k := New(env, cl, crt.NewSet(env, cl, reg, prm), prm)
	k.Start()
	return &fixture{env: env, cl: cl, reg: reg, k: k, prm: prm}
}

func spec(name string) PodSpec {
	return PodSpec{
		Name:       name,
		Image:      "matmul",
		CPURequest: 1,
		MemMB:      512,
		CapCores:   1,
		AppInit:    1200 * time.Millisecond,
	}
}

func TestPodBecomesReady(t *testing.T) {
	f := newFixture(t)
	var readyIn time.Duration
	f.env.Go("client", func(p *sim.Proc) {
		pod, err := f.k.CreatePod(spec("fn-1"))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.k.WaitReady(p, pod); err != nil {
			t.Fatal(err)
		}
		readyIn = p.Now()
		if pod.Phase() != PhaseRunning || !pod.Ready() {
			t.Errorf("phase=%v ready=%v", pod.Phase(), pod.Ready())
		}
		if pod.NodeName == "" {
			t.Error("pod not bound")
		}
	})
	f.env.Run()
	// Cold path: scheduling + image pull (~82 MB) + create + start +
	// app init + probe. Must exceed app init alone and stay within a few
	// seconds.
	if readyIn < f.prm.ColdStartAppInit || readyIn > 5*time.Second {
		t.Errorf("pod ready in %v", readyIn)
	}
}

func TestWarmNodeStartupFasterThanCold(t *testing.T) {
	f := newFixture(t)
	var cold, warm time.Duration
	f.env.Go("client", func(p *sim.Proc) {
		pod1, _ := f.k.CreatePod(spec("fn-1"))
		start := p.Now()
		_ = f.k.WaitReady(p, pod1)
		cold = p.Now() - start
		// Second pod lands on a different (least-loaded) node — pull again.
		// Force same node by filling others? Simpler: create enough pods to
		// cycle back to the first node.
		pod2, _ := f.k.CreatePod(spec("fn-2"))
		pod3, _ := f.k.CreatePod(spec("fn-3"))
		_ = f.k.WaitReady(p, pod2)
		_ = f.k.WaitReady(p, pod3)
		start = p.Now()
		pod4, _ := f.k.CreatePod(spec("fn-4")) // image now cached everywhere
		_ = f.k.WaitReady(p, pod4)
		warm = p.Now() - start
	})
	f.env.Run()
	if warm >= cold {
		t.Errorf("warm start %v not faster than cold %v", warm, cold)
	}
}

func TestSchedulerSpreadsPods(t *testing.T) {
	f := newFixture(t)
	f.env.Go("client", func(p *sim.Proc) {
		var pods []*Pod
		for i := 0; i < 3; i++ {
			pod, err := f.k.CreatePod(spec(podName(i)))
			if err != nil {
				t.Fatal(err)
			}
			pods = append(pods, pod)
		}
		for _, pod := range pods {
			if err := f.k.WaitReady(p, pod); err != nil {
				t.Fatal(err)
			}
		}
		seen := map[string]bool{}
		for _, pod := range pods {
			seen[pod.NodeName] = true
		}
		if len(seen) != 3 {
			t.Errorf("3 pods landed on %d nodes, want 3 (least-allocated spread)", len(seen))
		}
	})
	f.env.Run()
}

func podName(i int) string { return "fn-" + string(rune('a'+i)) }

func TestDeletePodFreesResources(t *testing.T) {
	f := newFixture(t)
	f.env.Go("client", func(p *sim.Proc) {
		pod, _ := f.k.CreatePod(spec("fn-1"))
		_ = f.k.WaitReady(p, pod)
		node := f.cl.MustNode(pod.NodeName)
		if node.MemUsedMB() != 512 {
			t.Errorf("mem used = %d", node.MemUsedMB())
		}
		f.k.DeletePod("fn-1")
		p.Sleep(time.Second)
		if node.MemUsedMB() != 0 {
			t.Errorf("mem not released: %d", node.MemUsedMB())
		}
		if pod.Ready() {
			t.Error("deleted pod still ready")
		}
		if f.k.podsOnNode(node.Name) != 0 {
			t.Errorf("PodsOnNode = %d", f.k.podsOnNode(node.Name))
		}
	})
	f.env.Run()
}

func TestDeleteDuringStartup(t *testing.T) {
	f := newFixture(t)
	f.env.Go("client", func(p *sim.Proc) {
		pod, _ := f.k.CreatePod(spec("fn-1"))
		p.Sleep(200 * time.Millisecond) // mid cold-start
		f.k.DeletePod("fn-1")
		err := f.k.WaitReady(p, pod)
		if err == nil {
			t.Error("pod deleted during startup reported ready")
		}
	})
	f.env.Run()
	// No leaked containers.
	for _, w := range f.cl.Workers {
		if f.k.Runtime(w.Name).Live() != 0 {
			t.Errorf("leaked container on %s", w.Name)
		}
		if w.MemUsedMB() != 0 {
			t.Errorf("leaked memory on %s: %d MB", w.Name, w.MemUsedMB())
		}
	}
}

// TestDeletePendingPodResolvesReadiness: a pod deleted before the
// scheduler binds it resolves its readiness with an error, so its waiter
// returns and the run drains.
func TestDeletePendingPodResolvesReadiness(t *testing.T) {
	f := newFixture(t)
	f.env.Go("client", func(p *sim.Proc) {
		pod, _ := f.k.CreatePod(spec("fn-1"))
		f.k.DeletePod("fn-1")
		if err := f.k.WaitReady(p, pod); err == nil {
			t.Error("pod deleted while pending reported ready")
		}
		if pod.Phase() != PhaseDead {
			t.Errorf("deleted pending pod in phase %v, want Dead", pod.Phase())
		}
		f.k.Shutdown()
	})
	f.env.Run()
	if n := f.env.Alive(); n != 0 {
		t.Errorf("%d processes still alive after the run, want 0", n)
	}
}

// TestDeleteWhileSchedulingResolvesOnce: a pod deleted while the scheduler
// is deciding on it resolves at deletion. The scheduler still binds it and
// its bring-up cancels itself, without resolving the readiness twice or
// leaking the container.
func TestDeleteWhileSchedulingResolvesOnce(t *testing.T) {
	f := newFixture(t)
	f.env.Go("client", func(p *sim.Proc) {
		pod, _ := f.k.CreatePod(spec("fn-1"))
		p.Sleep(f.prm.SchedulerLatency / 2)
		f.k.DeletePod("fn-1")
		if err := f.k.WaitReady(p, pod); err == nil {
			t.Error("pod deleted while scheduling reported ready")
		}
		p.Sleep(time.Minute) // the cancelled bring-up finishes
		f.k.Shutdown()
	})
	f.env.Run()
	if n := f.env.Alive(); n != 0 {
		t.Errorf("%d processes still alive after the run, want 0", n)
	}
	for _, w := range f.cl.Workers {
		if f.k.Runtime(w.Name).Live() != 0 || w.MemUsedMB() != 0 {
			t.Errorf("%s holds %d containers and %d MB", w.Name, f.k.Runtime(w.Name).Live(), w.MemUsedMB())
		}
	}
}

// TestShutdownWhileSchedulingDropsBind: Shutdown while the scheduler holds a
// pod closes the kubelet queues under it. The scheduler still binds the pod
// when its sleep ends, and the bind's delivery is dropped instead of sent on
// a closed queue. A pod created after Shutdown is refused with an error.
func TestShutdownWhileSchedulingDropsBind(t *testing.T) {
	f := newFixture(t)
	f.env.Go("client", func(p *sim.Proc) {
		pod, _ := f.k.CreatePod(spec("fn-1"))
		p.Sleep(f.prm.SchedulerLatency / 2)
		f.k.DeletePod("fn-1")
		f.k.Shutdown()
		if err := f.k.WaitReady(p, pod); err == nil {
			t.Error("pod deleted while scheduling reported ready")
		}
		if _, err := f.k.CreatePod(spec("fn-2")); err == nil {
			t.Error("CreatePod after Shutdown accepted")
		}
	})
	f.env.Run()
	if n := f.env.Alive(); n != 0 {
		t.Errorf("%d processes still alive after the run, want 0", n)
	}
}

func TestUnknownImageFailsPod(t *testing.T) {
	f := newFixture(t)
	f.env.Go("client", func(p *sim.Proc) {
		s := spec("fn-1")
		s.Image = "ghost"
		pod, _ := f.k.CreatePod(s)
		if err := f.k.WaitReady(p, pod); err == nil {
			t.Error("pod with unknown image became ready")
		}
		if pod.Phase() != PhaseFailed {
			t.Errorf("phase = %v, want Failed", pod.Phase())
		}
	})
	f.env.Run()
}

func TestMemoryExhaustionFails(t *testing.T) {
	f := newFixture(t)
	f.env.Go("client", func(p *sim.Proc) {
		s := spec("huge")
		s.MemMB = 33 * 1024 // exceeds every node
		pod, _ := f.k.CreatePod(s)
		if err := f.k.WaitReady(p, pod); err == nil {
			t.Error("unschedulable pod became ready")
		}
	})
	f.env.Run()
}

func TestDuplicatePodName(t *testing.T) {
	f := newFixture(t)
	f.env.Go("client", func(p *sim.Proc) {
		if _, err := f.k.CreatePod(spec("fn-1")); err != nil {
			t.Fatal(err)
		}
		if _, err := f.k.CreatePod(spec("fn-1")); err == nil {
			t.Error("duplicate pod name accepted")
		}
	})
	f.env.Run()
}

func TestPodExec(t *testing.T) {
	f := newFixture(t)
	f.env.Go("client", func(p *sim.Proc) {
		pod, _ := f.k.CreatePod(spec("fn-1"))
		if err := pod.ExecThen(nil, 1, p.Resumer()); err == nil {
			t.Error("exec on pending pod succeeded")
		}
		_ = f.k.WaitReady(p, pod)
		start := p.Now()
		if err := pod.ExecThen(nil, 0.5, p.Resumer()); err != nil {
			t.Fatal(err)
		}
		p.Await()
		if got := p.Now() - start; got != 500*time.Millisecond {
			t.Errorf("exec took %v, want 500ms", got)
		}
	})
	f.env.Run()
}

func TestCreateBeforeStartRejected(t *testing.T) {
	env := sim.NewEnv(1)
	prm := config.Default()
	cl := cluster.New(env, prm)
	reg := registry.New(cl.Net)
	k := New(env, cl, crt.NewSet(env, cl, reg, prm), prm)
	if _, err := k.CreatePod(spec("fn-1")); err == nil {
		t.Error("CreatePod before Start accepted")
	}
}
