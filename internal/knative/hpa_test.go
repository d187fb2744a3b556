package knative

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// burstDrainTime fires 16 concurrent 2-core-second requests at a service of
// the given autoscaler class and returns (drain duration, peak pods).
func burstDrainTime(t *testing.T, class AutoscalerClass) (time.Duration, int) {
	t.Helper()
	f := newFixture(t)
	var drain time.Duration
	peak := 0
	f.env.Go("main", func(p *sim.Proc) {
		defer f.kn.Shutdown()
		f.prePull(p)
		spec := baseSpec()
		spec.InitialScale = 1
		spec.MinScale = 1
		spec.ContainerConcurrency = 1
		spec.Class = class
		svc, err := f.kn.Deploy(p, spec)
		if err != nil {
			t.Error(err)
			return
		}
		f.env.Go("watch", func(wp *sim.Proc) {
			for i := 0; i < 300; i++ {
				wp.Sleep(time.Second)
				if n := svc.ReadyPods(); n > peak {
					peak = n
				}
			}
		})
		start := p.Now()
		wg := sim.NewWaitGroup(f.env)
		for i := 0; i < 16; i++ {
			wg.Add(1)
			f.env.Go("client", func(cp *sim.Proc) {
				defer wg.Done()
				if _, err := svc.Invoke(cp, req(2.0)); err != nil {
					t.Error(err)
				}
			})
		}
		wg.Wait(p)
		drain = p.Now() - start
	})
	f.env.RunUntil(10 * time.Minute)
	return drain, peak
}

func TestHPAScalesOnUtilization(t *testing.T) {
	drain, peak := burstDrainTime(t, ClassHPA)
	if peak < 2 {
		t.Errorf("HPA never scaled beyond %d pod(s)", peak)
	}
	if drain <= 0 || drain > 5*time.Minute {
		t.Errorf("burst drained in %v", drain)
	}
}

func TestKPAReactsFasterThanHPA(t *testing.T) {
	kpaDrain, _ := burstDrainTime(t, ClassKPA)
	hpaDrain, _ := burstDrainTime(t, ClassHPA)
	// The KPA's 2s tick + panic mode beats the HPA's 15s sync cadence on a
	// burst — the reason knative defaults to the KPA for functions.
	if kpaDrain >= hpaDrain {
		t.Errorf("KPA drain %v not faster than HPA %v", kpaDrain, hpaDrain)
	}
}

func TestHPANeverScalesToZero(t *testing.T) {
	f := newFixture(t)
	f.env.Go("main", func(p *sim.Proc) {
		defer f.kn.Shutdown()
		f.prePull(p)
		spec := baseSpec()
		spec.InitialScale = 1
		spec.Class = ClassHPA
		svc, err := f.kn.Deploy(p, spec)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := svc.Invoke(p, req(0.42)); err != nil {
			t.Error(err)
		}
		p.Sleep(f.prm.StableWindow + f.prm.ScaleToZeroGrace + 60*time.Second)
		if n := svc.ReadyPods(); n != 1 {
			t.Errorf("HPA pods = %d after idle, want 1 (no scale-to-zero)", n)
		}
	})
	f.env.Run()
}

// TestAutoscalerRestoresFloorAfterReplicasDie kills every replica of an
// idle service and checks that its autoscaler alone brings it back to
// MinScale. Both classes run the one reconcile loop, so neither waits for
// a request to notice that it has no ready pod.
func TestAutoscalerRestoresFloorAfterReplicasDie(t *testing.T) {
	for _, tc := range []struct {
		name  string
		class AutoscalerClass
	}{{"kpa", ClassKPA}, {"hpa", ClassHPA}} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			f.env.Go("main", func(p *sim.Proc) {
				defer f.kn.Shutdown()
				f.prePull(p)
				spec := baseSpec()
				spec.MinScale = 2
				spec.Class = tc.class
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
}
