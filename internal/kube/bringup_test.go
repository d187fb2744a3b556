package kube

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/crt"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/trace"
)

// prePull puts the pod image into every worker's store from inside p.
func prePull(t *testing.T, p *sim.Proc, f *fixture) {
	for _, w := range f.cl.Workers {
		if err := f.k.Runtime(w.Name).PullImage(p, "matmul"); err != nil {
			t.Fatal(err)
		}
	}
}

// injectRate attaches a fault injector to the control plane and every
// runtime, with kind failing every roll.
func injectRate(f *fixture, kind faults.Kind) {
	in := faults.NewInjector(f.env)
	f.k.AttachFaults(in)
	set := crt.Set{}
	for _, w := range f.cl.Workers {
		set[w.Name] = f.k.Runtime(w.Name)
	}
	set.AttachFaults(in)
	in.Schedule(faults.Fault{Kind: kind, At: f.env.Now(), Rate: 1})
}

// awaitStarted polls in 1 ms steps until the pod's container is running.
func awaitStarted(p *sim.Proc, pod *Pod) {
	for pod.container == nil || pod.container.State() != crt.StateRunning {
		p.Sleep(time.Millisecond)
	}
}

// spanTree renders the span tree under root as substrate/name, with the
// status label in braces and children in parentheses.
func spanTree(tr *trace.Tracer, root *trace.Span) string {
	var b strings.Builder
	var walk func(sp *trace.Span)
	walk = func(sp *trace.Span) {
		b.WriteString(sp.Substrate() + "/" + sp.Name())
		if st, ok := sp.Label("status"); ok {
			b.WriteString("{" + st + "}")
		}
		first := true
		for _, c := range tr.Spans() {
			if c.Parent() != sp.ID() {
				continue
			}
			if first {
				b.WriteString("(")
				first = false
			} else {
				b.WriteString(" ")
			}
			walk(c)
		}
		if !first {
			b.WriteString(")")
		}
	}
	walk(root)
	return b.String()
}

// TestBringUpExits drives one pod out of every exit of the bring-up
// sequence and checks where it ends: its phase and readiness error, the
// node accounting back at zero once the run drains, and the span tree of
// its bring-up.
func TestBringUpExits(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*config.Params)
		cached bool        // image in every worker's store before the pod
		fault  faults.Kind // kind failing every roll; "" for none
		image  string      // "" = matmul
		// act runs after prePull and returns the pod under test; it may
		// create others and delete any of them.
		act   func(p *sim.Proc, f *fixture) *Pod
		phase Phase
		err   string
		tree  string
	}{
		{
			name:   "deleted before startup",
			mutate: cpConstants,
			cached: true,
			act: func(p *sim.Proc, f *fixture) *Pod {
				pod, _ := f.k.CreatePod(spec("fn-1"))
				for pod.Node() == nil { // bound, binding not yet delivered
					p.Sleep(time.Millisecond)
				}
				f.k.DeletePod("fn-1")
				return pod
			},
			phase: PhaseDead,
			err:   "kube: pod fn-1 deleted before startup",
			tree:  "kube/pod-bringup{cancelled}",
		},
		{
			name:   "deleted during app init",
			cached: true,
			act: func(p *sim.Proc, f *fixture) *Pod {
				pod, _ := f.k.CreatePod(spec("fn-1"))
				awaitStarted(p, pod)
				p.Sleep(f.prm.ColdStartAppInit / 2)
				f.k.DeletePod("fn-1")
				return pod
			},
			phase: PhaseDead,
			err:   "kube: pod fn-1 deleted during startup",
			tree:  "kube/pod-bringup{cancelled}(crt/create crt/start crt/stop-remove)",
		},
		{
			name:   "deleted during status delay",
			mutate: cpConstants,
			cached: true,
			act: func(p *sim.Proc, f *fixture) *Pod {
				pod, _ := f.k.CreatePod(spec("fn-1"))
				awaitStarted(p, pod)
				// The status write takes over 20 ms (commit + watch).
				p.Sleep(pod.Spec.AppInit + f.prm.ReadinessProbeInterval + 10*time.Millisecond)
				if pod.Ready() {
					t.Error("pod ready before its status delay ended")
				}
				f.k.DeletePod("fn-1")
				return pod
			},
			phase: PhaseDead,
			err:   "kube: pod fn-1 deleted during startup",
			tree:  "kube/pod-bringup{cancelled}(crt/create crt/start crt/stop-remove)",
		},
		{
			name:   "create failure",
			cached: true,
			fault:  faults.KindCreateFail,
			phase:  PhaseFailed,
			err:    `crt: worker1: create "matmul": injected create failure`,
			tree:   "kube/pod-bringup{failed}(crt/create{failed})",
		},
		{
			name:   "start failure",
			cached: true,
			fault:  faults.KindStartFail,
			phase:  PhaseFailed,
			err:    "crt: worker1: start container 0: injected start failure",
			tree:   "kube/pod-bringup{failed}(crt/create crt/start{failed} crt/stop-remove)",
		},
		{
			name:   "cold-start failure",
			cached: true,
			fault:  faults.KindColdStartFail,
			phase:  PhaseFailed,
			err:    "kube: pod fn-1: injected cold-start failure on worker1",
			tree:   "kube/pod-bringup{failed}(crt/create crt/start crt/stop-remove)",
		},
		{
			name:  "unknown image",
			image: "ghost",
			phase: PhaseFailed,
			err:   `crt: worker1: image "ghost" not in registry`,
			tree:  "kube/pod-bringup{failed}",
		},
		{
			name:  "absent image pulled",
			phase: PhaseRunning,
			tree:  "kube/pod-bringup(crt/pull(registry/layers) crt/create crt/start)",
		},
		{
			name: "memory exhaustion",
			mutate: func(p *config.Params) {
				// One worker, and bindings that outlast a scheduling
				// decision, so both pods bind before either reserves.
				cpConstants(p)
				p.WorkerNodes = 1
				p.SchedulerLatency = time.Millisecond
			},
			cached: true,
			act: func(p *sim.Proc, f *fixture) *Pod {
				big := spec("fn-0")
				big.MemMB = 20 * 1024
				first, _ := f.k.CreatePod(big)
				big.Name = "fn-1"
				pod, _ := f.k.CreatePod(big)
				if err := f.k.WaitReady(p, first); err != nil {
					t.Errorf("first pod: %v", err)
				}
				f.k.DeletePod("fn-0")
				return pod
			},
			phase: PhaseFailed,
			err:   "cluster: worker1: out of memory (20480 used + 20480 requested > 32768)",
			tree:  "kube/pod-bringup{failed}",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixtureWith(t, tc.mutate)
			tr := trace.New(f.env)
			if tc.fault != "" {
				injectRate(f, tc.fault)
			}
			var pod *Pod
			var err error
			var phase Phase
			f.env.Go("client", func(p *sim.Proc) {
				if tc.cached {
					prePull(t, p, f)
				}
				if tc.act != nil {
					pod = tc.act(p, f)
				} else {
					s := spec("fn-1")
					if tc.image != "" {
						s.Image = tc.image
					}
					pod, _ = f.k.CreatePod(s)
				}
				err = f.k.WaitReady(p, pod)
				phase = pod.Phase()
				if pod.Ready() {
					f.k.DeletePod(pod.Spec.Name)
					p.Sleep(time.Second) // teardown
				}
			})
			f.env.Run()
			f.k.Shutdown()
			f.env.Run()

			if phase != tc.phase {
				t.Errorf("phase = %v, want %v", phase, tc.phase)
			}
			got := ""
			if err != nil {
				got = err.Error()
			}
			if got != tc.err {
				t.Errorf("readiness error = %q, want %q", got, tc.err)
			}
			for i, w := range f.cl.Workers {
				if w.MemUsedMB() != 0 || f.k.reqCPU[i] != 0 || f.k.reqMemMB[i] != 0 || f.k.podsOn[i] != 0 {
					t.Errorf("%s not released: mem %d MB, reqCPU %v, reqMemMB %d, pods %d",
						w.Name, w.MemUsedMB(), f.k.reqCPU[i], f.k.reqMemMB[i], f.k.podsOn[i])
				}
				if live := f.k.Runtime(w.Name).Live(); live != 0 {
					t.Errorf("%s: %d containers live", w.Name, live)
				}
			}
			var roots []string
			for _, sp := range tr.Spans() {
				if name, _ := sp.Label("pod"); sp.Name() == "pod-bringup" && name == pod.Spec.Name {
					if sp.Parent() != 0 {
						t.Errorf("pod-bringup span has parent %d, want a root", sp.Parent())
					}
					if !sp.Ended() {
						t.Error("pod-bringup span not ended")
					}
					roots = append(roots, spanTree(tr, sp))
				}
			}
			if len(roots) != 1 || roots[0] != tc.tree {
				t.Errorf("bring-up spans = %q, want [%q]", roots, tc.tree)
			}
		})
	}
}

// lifecycleAllocs is the steady-state allocation count of one pod
// lifecycle (create → ready → delete → teardown) on 8 workers holding the
// image, measured over 64-pod batches under control-plane mode mode.
func lifecycleAllocs(t *testing.T, mode string) float64 {
	const batch = 64
	f := newFixtureWith(t, func(p *config.Params) {
		p.WorkerNodes = 8
		cpConstants(p)
		p.CPMode = mode
	})
	names := make([]string, batch)
	for i := range names {
		names[i] = "pod-" + string(rune('A'+i))
	}
	pods := make([]*Pod, batch)
	const period = 10 * time.Second // one wave, drained and idle at the end
	f.env.Go("driver", func(p *sim.Proc) {
		prePull(t, p, f)
		for next := period; ; next += period {
			p.Sleep(next - p.Now())
			for i, name := range names {
				s := spec(name)
				s.AppInit = time.Second
				pods[i], _ = f.k.CreatePod(s)
			}
			for _, pod := range pods {
				if err := f.k.WaitReady(p, pod); err != nil {
					t.Error(err)
				}
			}
			for _, name := range names {
				f.k.DeletePod(name)
			}
		}
	})
	// RunFor stops with the driver's next wake pending, so the kernel
	// keeps its idle coroutines between waves.
	wave := func() { f.env.RunFor(period) }
	for i := 0; i < 3; i++ {
		wave() // warm pools, rings and maps
	}
	return testing.AllocsPerRun(10, wave) / batch
}

// TestPodLifecycleAllocs pins the steady-state allocations of one pod
// lifecycle in both control-plane modes. With a coroutine per bring-up, a
// sim.Future per pod and the runtime's container map, this test measured
// 10.8 under direct and 11.1 under baseline. The six left are the Pod, its
// step continuation, the container, the two delayed kubelet deliveries and
// the driver's Future.Get waiter slot.
func TestPodLifecycleAllocs(t *testing.T) {
	for _, mode := range []string{"direct", "baseline"} {
		if got := lifecycleAllocs(t, mode); got > 6 {
			t.Errorf("%s: one pod lifecycle allocates %.2f times, want <= 6", mode, got)
		}
	}
}

// TestPodLifecycleSpawnsNoCoroutine: a 64-pod wave, brought up and deleted,
// costs the driver's coroutine alone — the scheduler, the kubelets, every
// bring-up, teardown and readiness watch run on continuations.
func TestPodLifecycleSpawnsNoCoroutine(t *testing.T) {
	f := newFixtureWith(t, func(p *config.Params) { p.WorkerNodes = 8 })
	ready := 0
	f.env.Go("driver", func(p *sim.Proc) {
		prePull(t, p, f)
		var pods []*Pod
		for i := 0; i < 64; i++ {
			pod, err := f.k.CreatePod(spec(fmt.Sprintf("fn-%02d", i)))
			if err != nil {
				t.Fatal(err)
			}
			f.k.OnReady(pod, func(err error) {
				if err == nil {
					ready++
				}
			})
			pods = append(pods, pod)
		}
		for _, pod := range pods {
			if err := f.k.WaitReady(p, pod); err != nil {
				t.Error(err)
			}
		}
		for _, pod := range pods {
			f.k.DeletePod(pod.Spec.Name)
		}
		p.Sleep(time.Second)
		f.k.Shutdown()
	})
	f.env.Run()
	if ready != 64 {
		t.Errorf("%d readiness continuations saw a ready pod, want 64", ready)
	}
	if want := 1; f.env.Stats().Coroutines != want {
		t.Errorf("run created %d coroutines, want %d (the driver)", f.env.Stats().Coroutines, want)
	}
	if f.env.Alive() != 0 {
		t.Errorf("%d processes alive after shutdown", f.env.Alive())
	}
}

// TestStartSpawnsNoCoroutine: a 2,048-worker control plane starts, idles
// and shuts down without a coroutine — the scheduler and the kubelets are
// handlers of their queues.
func TestStartSpawnsNoCoroutine(t *testing.T) {
	f := newFixtureWith(t, func(p *config.Params) { p.WorkerNodes = 2048 })
	f.env.Run()
	f.k.Shutdown()
	f.env.Run()
	if n := f.env.Stats().Coroutines; n != 0 {
		t.Errorf("start and shutdown created %d coroutines, want 0", n)
	}
}
