package knative

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/crt"
	"repro/internal/kube"
	"repro/internal/registry"
	"repro/internal/sim"
)

type fixture struct {
	env *sim.Env
	cl  *cluster.Cluster
	k   *kube.Kube
	kn  *Knative
	prm config.Params
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	env := sim.NewEnv(1)
	prm := config.Default()
	cl := cluster.New(env, prm)
	reg := registry.New(cl.Net)
	reg.Push(registry.NewImage("matmul", prm.ImageLayersBytes[:1], prm.ImageLayersBytes[1]))
	k := kube.New(env, cl, crt.NewSet(env, cl, reg, prm), prm)
	k.Start()
	kn := New(env, cl, k, prm)
	return &fixture{env: env, cl: cl, k: k, kn: kn, prm: prm}
}

func baseSpec() ServiceSpec {
	return ServiceSpec{
		Name:                 "matmul",
		Image:                "matmul",
		ContainerConcurrency: 1,
		CPURequest:           1,
		MemMB:                512,
		CapCores:             1,
		AppInit:              1200 * time.Millisecond,
	}
}

// req is a small-payload request (trigger-style invocation, as in the
// paper's Fig. 1 setup where data lives on the node). Pass-by-value
// marshalling costs are exercised separately.
func req(work float64) Request {
	return Request{From: cluster.SubmitNodeName, PayloadIn: 2048, PayloadOut: 1024, Work: work}
}

// prePull warms the image cache on all workers so tests isolate the latency
// source they care about.
func (f *fixture) prePull(p *sim.Proc) {
	for _, w := range f.k.Workers() {
		if err := f.k.Runtime(w).PullImage(p, "matmul"); err != nil {
			panic(err)
		}
	}
}

func TestDeployWithInitialScale(t *testing.T) {
	f := newFixture(t)
	f.env.Go("main", func(p *sim.Proc) {
		spec := baseSpec()
		spec.InitialScale = 2
		svc, err := f.kn.Deploy(p, spec)
		if err != nil {
			t.Fatal(err)
		}
		if svc.ReadyPods() != 2 {
			t.Errorf("ReadyPods = %d, want 2 right after Deploy", svc.ReadyPods())
		}
		f.kn.Shutdown()
	})
	f.env.Run()
}

func TestColdStartLatencyMatchesPaper(t *testing.T) {
	f := newFixture(t)
	var coldLatency time.Duration
	f.env.Go("main", func(p *sim.Proc) {
		f.prePull(p) // image staged; cold start = container + app init path
		spec := baseSpec()
		spec.InitialScale = 0
		svc, err := f.kn.Deploy(p, spec)
		if err != nil {
			t.Fatal(err)
		}
		start := p.Now()
		r := req(0) // isolate startup latency from compute
		resp, err := svc.Invoke(p, r)
		if err != nil {
			t.Fatal(err)
		}
		coldLatency = p.Now() - start
		if !resp.Cold {
			t.Error("first invocation against scale-zero not marked cold")
		}
		f.kn.Shutdown()
	})
	f.env.Run()
	// Paper (Fig. 1): 1.48 s cold start. Accept ±15%.
	got := coldLatency.Seconds()
	if got < 1.48*0.85 || got > 1.48*1.15 {
		t.Errorf("cold start = %.3fs, want ≈1.48s", got)
	}
}

func TestWarmInvocationFastAndReused(t *testing.T) {
	f := newFixture(t)
	f.env.Go("main", func(p *sim.Proc) {
		spec := baseSpec()
		spec.InitialScale = 1
		spec.MinScale = 1
		svc, err := f.kn.Deploy(p, spec)
		if err != nil {
			t.Fatal(err)
		}
		var latencies []time.Duration
		for i := 0; i < 10; i++ {
			start := p.Now()
			resp, err := svc.Invoke(p, req(0.44))
			if err != nil {
				t.Fatal(err)
			}
			if resp.Cold {
				t.Errorf("invocation %d cold with min-scale=1", i)
			}
			latencies = append(latencies, p.Now()-start)
		}
		for i, l := range latencies {
			if l > time.Second {
				t.Errorf("warm invocation %d took %v", i, l)
			}
		}
		f.kn.Shutdown()
	})
	f.env.Run()
	// All ten tasks through one container: the reuse headline.
	total := 0
	for _, w := range f.k.Workers() {
		total += f.k.Runtime(w).CreatedTotal()
	}
	if total != 1 {
		t.Errorf("created %d containers for 10 sequential tasks, want 1 (reuse)", total)
	}
}

func TestAutoscalerAddsPodsUnderLoad(t *testing.T) {
	f := newFixture(t)
	var peakReady int
	f.env.Go("main", func(p *sim.Proc) {
		f.prePull(p)
		spec := baseSpec()
		spec.InitialScale = 1
		spec.MinScale = 1
		svc, err := f.kn.Deploy(p, spec)
		if err != nil {
			t.Fatal(err)
		}
		wg := sim.NewWaitGroup(f.env)
		for i := 0; i < 12; i++ {
			wg.Add(1)
			f.env.Go("client", func(cp *sim.Proc) {
				defer wg.Done()
				if _, err := svc.Invoke(cp, req(2.0)); err != nil {
					t.Error(err)
				}
			})
		}
		f.env.Go("watch", func(wp *sim.Proc) {
			for i := 0; i < 200; i++ {
				wp.Sleep(250 * time.Millisecond)
				if n := svc.ReadyPods(); n > peakReady {
					peakReady = n
				}
			}
		})
		wg.Wait(p)
		f.kn.Shutdown()
	})
	f.env.Run()
	if peakReady < 2 {
		t.Errorf("autoscaler never scaled beyond %d pod(s) under 12-way concurrency", peakReady)
	}
}

func TestScaleToZeroAfterIdle(t *testing.T) {
	f := newFixture(t)
	f.env.Go("main", func(p *sim.Proc) {
		f.prePull(p)
		spec := baseSpec()
		spec.InitialScale = 1 // no MinScale floor
		svc, err := f.kn.Deploy(p, spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Invoke(p, req(0.44)); err != nil {
			t.Fatal(err)
		}
		// Idle for stable window + grace + slack.
		p.Sleep(f.prm.StableWindow + f.prm.ScaleToZeroGrace + 10*time.Second)
		if n := svc.ReadyPods(); n != 0 {
			t.Errorf("ReadyPods = %d after long idle, want 0 (scale to zero)", n)
		}
		// Next request cold-starts again.
		resp, err := svc.Invoke(p, req(0.44))
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Cold {
			t.Error("request after scale-to-zero was not cold")
		}
		f.kn.Shutdown()
	})
	f.env.Run()
}

func TestMinScaleFloorHolds(t *testing.T) {
	f := newFixture(t)
	f.env.Go("main", func(p *sim.Proc) {
		spec := baseSpec()
		spec.MinScale = 2
		svc, err := f.kn.Deploy(p, spec)
		if err != nil {
			t.Fatal(err)
		}
		p.Sleep(f.prm.StableWindow + f.prm.ScaleToZeroGrace + 20*time.Second)
		if n := svc.ReadyPods(); n != 2 {
			t.Errorf("ReadyPods = %d after idle, want min-scale 2", n)
		}
		f.kn.Shutdown()
	})
	f.env.Run()
}

func TestContainerConcurrencyGate(t *testing.T) {
	f := newFixture(t)
	var maxQueued time.Duration
	f.env.Go("main", func(p *sim.Proc) {
		spec := baseSpec()
		spec.ContainerConcurrency = 1
		spec.InitialScale = 1
		spec.MinScale = 1
		spec.MaxScale = 1 // force queueing rather than scale-out
		svc, err := f.kn.Deploy(p, spec)
		if err != nil {
			t.Fatal(err)
		}
		wg := sim.NewWaitGroup(f.env)
		for i := 0; i < 3; i++ {
			wg.Add(1)
			f.env.Go("client", func(cp *sim.Proc) {
				defer wg.Done()
				resp, err := svc.Invoke(cp, req(1.0))
				if err != nil {
					t.Error(err)
				}
				if resp.Queued > maxQueued {
					maxQueued = resp.Queued
				}
			})
		}
		wg.Wait(p)
		f.kn.Shutdown()
	})
	f.env.Run()
	if maxQueued < time.Second {
		t.Errorf("max queueing %v; with cc=1, max-scale=1 and 3×1s requests expect ≥1s", maxQueued)
	}
}

func TestConcurrentSharingWithHighCC(t *testing.T) {
	f := newFixture(t)
	var end time.Duration
	f.env.Go("main", func(p *sim.Proc) {
		spec := baseSpec()
		spec.ContainerConcurrency = 8
		spec.CapCores = 0 // share the node freely
		spec.InitialScale = 1
		spec.MinScale = 1
		spec.MaxScale = 1
		svc, err := f.kn.Deploy(p, spec)
		if err != nil {
			t.Fatal(err)
		}
		start := p.Now()
		wg := sim.NewWaitGroup(f.env)
		for i := 0; i < 4; i++ {
			wg.Add(1)
			f.env.Go("client", func(cp *sim.Proc) {
				defer wg.Done()
				if _, err := svc.Invoke(cp, req(1.0)); err != nil {
					t.Error(err)
				}
			})
		}
		wg.Wait(p)
		end = p.Now() - start
		f.kn.Shutdown()
	})
	f.env.Run()
	// 4 single-threaded 1-core-second tasks co-located in one container on
	// an 8-core node run in parallel: ~1s each, not 4s serialized.
	if end > 2*time.Second {
		t.Errorf("4 concurrent in-container tasks took %v, want ~1s", end)
	}
}

func TestPassByValueCodecCharged(t *testing.T) {
	f := newFixture(t)
	var small, large time.Duration
	f.env.Go("main", func(p *sim.Proc) {
		spec := baseSpec()
		spec.InitialScale = 1
		spec.MinScale = 1
		svc, err := f.kn.Deploy(p, spec)
		if err != nil {
			t.Fatal(err)
		}
		t0 := p.Now()
		if _, err := svc.Invoke(p, req(0)); err != nil {
			t.Fatal(err)
		}
		small = p.Now() - t0
		t0 = p.Now()
		big := Request{From: cluster.SubmitNodeName, PayloadIn: 2 * 980000, PayloadOut: 980000, Work: 0}
		if _, err := svc.Invoke(p, big); err != nil {
			t.Fatal(err)
		}
		large = p.Now() - t0
		f.kn.Shutdown()
	})
	f.env.Run()
	// 2.94 MB marshalled twice per direction at 8 MB/s ≈ 0.74 s extra.
	extra := (large - small).Seconds()
	if extra < 0.5 || extra > 1.2 {
		t.Errorf("pass-by-value extra = %.3fs, want ≈0.74s", extra)
	}
}

func TestDuplicateServiceRejected(t *testing.T) {
	f := newFixture(t)
	f.env.Go("main", func(p *sim.Proc) {
		if _, err := f.kn.Deploy(p, baseSpec()); err != nil {
			t.Fatal(err)
		}
		if _, err := f.kn.Deploy(p, baseSpec()); err == nil {
			t.Error("duplicate deploy accepted")
		}
		f.kn.Shutdown()
	})
	f.env.Run()
}

func TestInvokeAfterShutdownFails(t *testing.T) {
	f := newFixture(t)
	f.env.Go("main", func(p *sim.Proc) {
		svc, err := f.kn.Deploy(p, baseSpec())
		if err != nil {
			t.Fatal(err)
		}
		f.kn.Shutdown()
		if _, err := svc.Invoke(p, req(0.1)); err == nil {
			t.Error("invoke after shutdown succeeded")
		}
	})
	f.env.Run()
}

// TestShutdownDuringIngressStartsNoPod: a cold request whose ingress hop
// spans Shutdown fails as shut down while queued and scales nothing from
// zero, so no pod or container outlives the shutdown.
func TestShutdownDuringIngressStartsNoPod(t *testing.T) {
	f := newFixture(t)
	var svc *Service
	var invokeErr error
	f.env.Go("main", func(p *sim.Proc) {
		f.prePull(p)
		var err error
		if svc, err = f.kn.Deploy(p, baseSpec()); err != nil {
			t.Error(err)
			return
		}
		r := req(0.1)
		r.From = "worker1"
		svc.InvokeAsync(r, func(_ Response, err error) { invokeErr = err })
		f.kn.Shutdown()
	})
	f.env.Run()
	if invokeErr == nil || !strings.Contains(invokeErr.Error(), "shut down while queued") {
		t.Errorf("invoke error = %v, want shut down while queued", invokeErr)
	}
	if svc != nil && len(svc.pods) != 0 {
		t.Errorf("service holds %d pods after shutdown, want 0", len(svc.pods))
	}
	for _, w := range f.k.Workers() {
		if n := f.k.Runtime(w).Live(); n != 0 {
			t.Errorf("%s: %d containers live after shutdown, want 0", w, n)
		}
	}
}

func TestSimulationDrainsAfterShutdown(t *testing.T) {
	f := newFixture(t)
	f.env.Go("main", func(p *sim.Proc) {
		spec := baseSpec()
		spec.MinScale = 1
		svc, _ := f.kn.Deploy(p, spec)
		_, _ = svc.Invoke(p, req(0.44))
		f.kn.Shutdown()
		f.k.Shutdown()
	})
	f.env.Run()
	if f.env.Alive() != 0 {
		t.Errorf("%d processes still alive after shutdown (autoscaler leak?)", f.env.Alive())
	}
}
