package knative

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/crt"
	"repro/internal/kube"
	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/sim"
)

// newProtectedFixture is newFixture with a parameter hook, for tests that
// turn on the overload-protection knobs (all zero, i.e. disabled, in the
// default fixture).
func newProtectedFixture(t *testing.T, mut func(*config.Params)) *fixture {
	t.Helper()
	env := sim.NewEnv(1)
	prm := config.Default()
	if mut != nil {
		mut(&prm)
	}
	cl := cluster.New(env, prm)
	reg := registry.New(cl.Net)
	reg.Push(registry.NewImage("matmul", prm.ImageLayersBytes[:1], prm.ImageLayersBytes[1]))
	k := kube.New(env, cl, crt.NewSet(env, cl, reg, prm), prm)
	k.Start()
	kn := New(env, cl, k, prm)
	return &fixture{env: env, cl: cl, k: k, kn: kn, prm: prm}
}

// Regression for the activator's queued-burst/scale-down race: a burst of
// queued requests racing pod kills used to be able to panic the router
// ("capacity vanished under pickAvailable") when a woken request's chosen
// replica lost its capacity before the claim. The router now re-queues
// instead; every request must complete (retried if its replica died) and
// the simulation must drain.
func TestQueuedBurstSurvivesPodKills(t *testing.T) {
	f := newProtectedFixture(t, nil)
	const clients = 12
	done := 0
	f.env.Go("main", func(p *sim.Proc) {
		f.prePull(p)
		spec := baseSpec()
		spec.MinScale = 2
		spec.InitialScale = 2
		svc, err := f.kn.Deploy(p, spec)
		if err != nil {
			t.Fatal(err)
		}
		wg := sim.NewWaitGroup(f.env)
		for i := 0; i < clients; i++ {
			wg.Add(1)
			f.env.Go("burst", func(cp *sim.Proc) {
				defer wg.Done()
				if _, err := svc.Invoke(cp, Request{From: cluster.SubmitNodeName, Work: 0.5}); err != nil {
					t.Errorf("burst invoke: %v", err)
					return
				}
				done++
			})
		}
		// Two kills land mid-burst, while requests are queued on the gates
		// of the pods being removed.
		f.env.Go("killer", func(kp *sim.Proc) {
			kp.Sleep(1200 * time.Millisecond)
			svc.killOnePod()
			kp.Sleep(600 * time.Millisecond)
			svc.killOnePod()
		})
		wg.Wait(p)
		f.kn.Shutdown()
		f.k.Shutdown()
	})
	f.env.Run()
	if done != clients {
		t.Errorf("completed %d/%d burst requests", done, clients)
	}
	if alive := f.env.Alive(); alive != 0 {
		t.Errorf("%d processes still alive after drain", alive)
	}
}

// With a bounded activator waiting room, a burst beyond slots+queue capacity
// is shed with ErrQueueFull instead of buffering without bound, and the
// admitted requests all complete.
func TestActivatorShedsWhenQueueFull(t *testing.T) {
	f := newProtectedFixture(t, func(prm *config.Params) {
		prm.ActivatorQueueCap = 2
	})
	const clients = 8
	var ok, shed int
	f.env.Go("main", func(p *sim.Proc) {
		f.prePull(p)
		spec := baseSpec() // ContainerConcurrency 1
		spec.MinScale = 1
		spec.InitialScale = 1
		spec.MaxScale = 1
		svc, err := f.kn.Deploy(p, spec)
		if err != nil {
			t.Fatal(err)
		}
		wg := sim.NewWaitGroup(f.env)
		for i := 0; i < clients; i++ {
			wg.Add(1)
			f.env.Go("client", func(cp *sim.Proc) {
				defer wg.Done()
				_, err := svc.Invoke(cp, Request{From: cluster.SubmitNodeName, Work: 1})
				switch {
				case err == nil:
					ok++
				case errors.Is(err, resilience.ErrQueueFull):
					shed++
				default:
					t.Errorf("unexpected error class: %v", err)
				}
			})
		}
		wg.Wait(p)
		if got := svc.Overload(); got.ShedFull != shed {
			t.Errorf("ShedFull = %d, clients shed = %d", got.ShedFull, shed)
		}
		f.kn.Shutdown()
		f.k.Shutdown()
	})
	f.env.Run()
	// 1 serving slot + 2 waiting-room seats; the other 5 must be shed.
	if ok != 3 || shed != 5 {
		t.Errorf("ok=%d shed=%d, want 3 served and 5 shed", ok, shed)
	}
}

// A propagated deadline drops queued requests at wake-up instead of serving
// them long past the point anyone cares about the answer.
func TestInvokeDeadlineDropsQueuedRequests(t *testing.T) {
	f := newProtectedFixture(t, func(prm *config.Params) {
		prm.InvokeDeadline = 300 * time.Millisecond
	})
	var ok, dropped int
	f.env.Go("main", func(p *sim.Proc) {
		f.prePull(p)
		spec := baseSpec()
		spec.MinScale = 1
		spec.InitialScale = 1
		spec.MaxScale = 1
		svc, err := f.kn.Deploy(p, spec)
		if err != nil {
			t.Fatal(err)
		}
		wg := sim.NewWaitGroup(f.env)
		for i := 0; i < 3; i++ {
			wg.Add(1)
			f.env.Go("client", func(cp *sim.Proc) {
				defer wg.Done()
				_, err := svc.Invoke(cp, Request{From: cluster.SubmitNodeName, Work: 1})
				switch {
				case err == nil:
					ok++
				case errors.Is(err, resilience.ErrDeadlineExceeded):
					dropped++
				default:
					t.Errorf("unexpected error class: %v", err)
				}
			})
		}
		wg.Wait(p)
		if got := svc.Overload(); got.DeadlineDrops != dropped {
			t.Errorf("DeadlineDrops = %d, clients dropped = %d", got.DeadlineDrops, dropped)
		}
		f.kn.Shutdown()
		f.k.Shutdown()
	})
	f.env.Run()
	// One request gets the only slot; the two queued behind its 1s of work
	// expire at 300ms.
	if ok != 1 || dropped != 2 {
		t.Errorf("ok=%d dropped=%d, want 1 served and 2 deadline drops", ok, dropped)
	}
}

// Repeated replica deaths trip the service's circuit breaker: subsequent
// invocations fail fast with ErrCircuitOpen instead of queueing onto a dying
// service, and once the open interval passes a half-open probe closes it.
func TestBreakerTripsOnReplicaDeathsAndRecovers(t *testing.T) {
	f := newProtectedFixture(t, func(prm *config.Params) {
		prm.BreakerFailures = 2
		prm.BreakerOpenFor = 3 * time.Second
		prm.BreakerHalfOpenProbes = 1
	})
	f.env.Go("main", func(p *sim.Proc) {
		f.prePull(p)
		spec := baseSpec()
		spec.MinScale = 1
		spec.InitialScale = 1
		svc, err := f.kn.Deploy(p, spec)
		if err != nil {
			t.Fatal(err)
		}
		// The killer waits for a request to claim a serving slot and kills
		// the replica while the payload is still moving (before the task
		// body runs), so the attempt dies at exec with a backend failure.
		f.env.Go("killer", func(kp *sim.Proc) {
			for kills := 0; kills < 2; {
				kp.Sleep(20 * time.Millisecond)
				busy := false
				for _, h := range svc.pods {
					if h.pod.Ready() && h.inFlight > 0 {
						busy = true
						break
					}
				}
				if busy {
					svc.killOnePod()
					kills++
				}
			}
		})
		// Two consecutive backend failures trip the breaker and the next
		// retry is denied.
		_, err = svc.Invoke(p, Request{From: cluster.SubmitNodeName, PayloadIn: 4 << 20, Work: 1})
		if !errors.Is(err, resilience.ErrCircuitOpen) {
			t.Errorf("invoke during kill storm: err = %v, want ErrCircuitOpen", err)
		}
		// Still inside the open interval: fail fast, no queueing.
		before := p.Now()
		_, err = svc.Invoke(p, Request{From: cluster.SubmitNodeName, Work: 1})
		if !errors.Is(err, resilience.ErrCircuitOpen) {
			t.Errorf("invoke while open: err = %v, want ErrCircuitOpen", err)
		}
		if waited := p.Now() - before; waited > 100*time.Millisecond {
			t.Errorf("fast-fail took %v; open breaker should not queue", waited)
		}
		ov := svc.Overload()
		if ov.BreakerTrips != 1 || ov.BreakerFastFails == 0 {
			t.Errorf("trips=%d fastFails=%d, want 1 trip and >0 fast fails", ov.BreakerTrips, ov.BreakerFastFails)
		}
		// Past OpenFor, with the replacement pod serving, the half-open
		// probe succeeds and closes the circuit.
		if until := 15 * time.Second; p.Now() < until {
			p.Sleep(until - p.Now())
		}
		if _, err := svc.Invoke(p, Request{From: cluster.SubmitNodeName, Work: 0.1}); err != nil {
			t.Errorf("probe invoke after open interval: %v", err)
		}
		if _, err := svc.Invoke(p, Request{From: cluster.SubmitNodeName, Work: 0.1}); err != nil {
			t.Errorf("invoke after recovery: %v", err)
		}
		f.kn.Shutdown()
		f.k.Shutdown()
	})
	f.env.Run()
}

// TestQueuedRequestsResumeCallerOnce: requests queued on one saturated
// replica wait as continuations, so each caller's process resumes at most
// twice, at its spawn and when its invocation ends, however many
// completions broadcast to the queue meanwhile.
func TestQueuedRequestsResumeCallerOnce(t *testing.T) {
	f := newFixture(t)
	const clients = 64
	var before, after sim.Stats
	var elapsed time.Duration
	done := 0
	f.env.Go("main", func(p *sim.Proc) {
		f.prePull(p)
		spec := baseSpec() // ContainerConcurrency 1
		spec.MinScale, spec.InitialScale, spec.MaxScale = 1, 1, 1
		svc, err := f.kn.Deploy(p, spec)
		if err != nil {
			t.Fatal(err)
		}
		wg := sim.NewWaitGroup(f.env)
		before = f.env.Stats()
		start := p.Now()
		for i := 0; i < clients; i++ {
			wg.Add(1)
			f.env.Go("client", func(cp *sim.Proc) {
				defer wg.Done()
				if _, err := svc.Invoke(cp, req(0.01)); err != nil {
					t.Error(err)
					return
				}
				done++
			})
		}
		wg.Wait(p)
		after = f.env.Stats()
		elapsed = p.Now() - start
		f.kn.Shutdown()
	})
	f.env.Run()
	if done != clients {
		t.Fatalf("completed %d/%d requests", done, clients)
	}
	// Besides the callers, main resumes once from wg.Wait and the
	// autoscaler at most three times per tick it sleeps through.
	others := 1 + 3*int(elapsed/f.prm.AutoscalerTick+1)
	if got, max := after.Resumes-before.Resumes, 2*clients+others; got > max {
		t.Errorf("%d resumes over %d queued requests (%v), want at most %d: two per caller and %d others",
			got, clients, elapsed, max, others)
	}
}
