package knative

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestPanicModeScalesWithinSeconds(t *testing.T) {
	f := newFixture(t)
	var readyAt2 time.Duration
	f.env.Go("main", func(p *sim.Proc) {
		defer f.kn.Shutdown()
		f.prePull(p)
		spec := baseSpec()
		spec.InitialScale = 1
		spec.MinScale = 1
		spec.ContainerConcurrency = 1
		svc, err := f.kn.Deploy(p, spec)
		if err != nil {
			t.Error(err)
			return
		}
		burstStart := p.Now()
		wg := sim.NewWaitGroup(f.env)
		for i := 0; i < 8; i++ {
			wg.Add(1)
			f.env.Go("client", func(cp *sim.Proc) {
				defer wg.Done()
				_, _ = svc.Invoke(cp, req(3.0))
			})
		}
		f.env.Go("watch", func(wp *sim.Proc) {
			for svc.ReadyPods() < 2 {
				wp.Sleep(250 * time.Millisecond)
				if wp.Now() > burstStart+time.Minute {
					return
				}
			}
			readyAt2 = wp.Now() - burstStart
		})
		wg.Wait(p)
	})
	f.env.RunUntil(5 * time.Minute)
	// Panic mode reacts at the 2s tick and pods cold-start in ~1.5s: the
	// second replica must be up within a few seconds, far inside the 60s
	// stable window.
	if readyAt2 == 0 || readyAt2 > 10*time.Second {
		t.Errorf("second replica ready after %v, want <10s (panic mode)", readyAt2)
	}
}

func TestCustomTargetChangesScale(t *testing.T) {
	// With target concurrency 4 and a steady 8-way load, the autoscaler
	// settles near 2 pods rather than 8.
	f := newFixture(t)
	var settled int
	f.env.Go("main", func(p *sim.Proc) {
		defer f.kn.Shutdown()
		f.prePull(p)
		spec := baseSpec()
		spec.InitialScale = 2
		spec.MinScale = 1
		spec.ContainerConcurrency = 8
		spec.Target = 4
		svc, err := f.kn.Deploy(p, spec)
		if err != nil {
			t.Error(err)
			return
		}
		// Closed-loop load: 8 clients looping requests for 2 minutes.
		stop := false
		for i := 0; i < 8; i++ {
			f.env.Go("client", func(cp *sim.Proc) {
				for !stop {
					if _, err := svc.Invoke(cp, req(1.0)); err != nil {
						return
					}
				}
			})
		}
		p.Sleep(2 * time.Minute)
		settled = svc.ReadyPods()
		stop = true
	})
	f.env.RunUntil(10 * time.Minute)
	if settled < 2 || settled > 4 {
		t.Errorf("settled at %d pods with target 4 under 8-way load, want 2-4", settled)
	}
}

func TestScaleDownKeepsBusyPods(t *testing.T) {
	f := newFixture(t)
	f.env.Go("main", func(p *sim.Proc) {
		defer f.kn.Shutdown()
		f.prePull(p)
		spec := baseSpec()
		spec.InitialScale = 3
		spec.MinScale = 1
		spec.ContainerConcurrency = 1
		svc, err := f.kn.Deploy(p, spec)
		if err != nil {
			t.Error(err)
			return
		}
		// One long request keeps a pod busy while the service goes idle.
		done := new(sim.Future[struct{}])
		f.env.Go("long", func(cp *sim.Proc) {
			if _, err := svc.Invoke(cp, req(200)); err != nil {
				t.Error(err)
			}
			done.Set(struct{}{})
		})
		p.Sleep(f.prm.StableWindow + 30*time.Second)
		// The autoscaler has scaled down, but never below the busy pod.
		if n := svc.ReadyPods(); n < 1 {
			t.Errorf("ReadyPods = %d while a request is in flight", n)
		}
		done.Get(p)
	})
	f.env.RunUntil(15 * time.Minute)
}

// TestAutoscalerSpawnsNoCoroutine: an autoscaled service scales up from
// zero under a burst, back to zero when idle, and shuts down on the
// driver's coroutine alone — the autoscaler is a chain of continuations,
// and so is every request of the burst.
func TestAutoscalerSpawnsNoCoroutine(t *testing.T) {
	f := newFixture(t)
	peak, idle := 0, -1
	f.env.Go("main", func(p *sim.Proc) {
		f.prePull(p)
		spec := baseSpec()
		spec.ContainerConcurrency = 1
		svc, err := f.kn.Deploy(p, spec)
		if err != nil {
			t.Error(err)
			return
		}
		wg := sim.NewWaitGroup(f.env)
		for i := 0; i < 8; i++ {
			wg.Add(1)
			svc.InvokeAsync(req(3.0), func(_ Response, err error) {
				if err != nil {
					t.Error(err)
				}
				wg.Done()
			})
		}
		for svc.ReadyPods() < 8 && p.Now() < time.Minute {
			p.Sleep(250 * time.Millisecond)
			peak = max(peak, svc.ReadyPods())
		}
		wg.Wait(p)
		p.Sleep(f.prm.StableWindow + f.prm.ScaleToZeroGrace + time.Minute)
		idle = len(svc.pods)
		f.kn.Shutdown()
		f.k.Shutdown()
	})
	f.env.Run()
	if peak < 2 {
		t.Errorf("peak of %d ready replicas under an 8-request burst, want a scale-up", peak)
	}
	if idle != 0 {
		t.Errorf("%d replicas left after idling, want scale to zero", idle)
	}
	if n := f.env.Stats().Coroutines; n != 1 {
		t.Errorf("run created %d coroutines, want 1 (the driver)", n)
	}
	if n := f.env.Alive(); n != 0 {
		t.Errorf("%d processes alive after shutdown", n)
	}
}

// TestAutoscalerRestoresFloorAfterReplicasDie kills every replica of an
// idle service and checks that its autoscaler alone brings it back to
// MinScale: the reconcile loop does not wait for a request to notice that
// the service has no ready pod.
func TestAutoscalerRestoresFloorAfterReplicasDie(t *testing.T) {
	// The subtest names the autoscaler class, KPA, the only one there is.
	t.Run("kpa", func(t *testing.T) {
		f := newFixture(t)
		f.env.Go("main", func(p *sim.Proc) {
			defer f.kn.Shutdown()
			f.prePull(p)
			spec := baseSpec()
			spec.MinScale = 2
			svc, err := f.kn.Deploy(p, spec)
			if err != nil {
				t.Error(err)
				return
			}
			svc.killOnePod()
			svc.killOnePod()
			if n := svc.ReadyPods(); n != 0 {
				t.Errorf("ready pods after two kills = %d, want 0", n)
				return
			}
			p.Sleep(2 * time.Minute)
			if n := svc.ReadyPods(); n != 2 {
				t.Errorf("ready pods after 2 min idle = %d, want MinScale 2", n)
			}
		})
		f.env.Run()
	})
}
