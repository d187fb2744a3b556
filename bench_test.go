// Benchmarks of the design choices DESIGN.md calls out (ablations), the
// placement hot path, the replication runner, the simulator kernel and the
// workflow engine. The per-study benchmarks that regenerate the paper's
// tables and figures live with the studies, in internal/experiments. Each
// iteration executes the full scenario in the discrete-event simulator; the
// reported wall time is simulator throughput, and the scenario's own result
// (virtual seconds) is attached as custom metrics.
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fluid"
	"repro/internal/knative"
	"repro/internal/kube"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/wms"
	"repro/internal/workload"
)

func quickOpts() experiments.Options {
	o := experiments.QuickOptions()
	o.Reps = 1
	return o
}

// ---- Ablations ----

// benchChain runs one 10-task workflow in the given mode and returns its
// virtual makespan.
func benchChain(seed uint64, prm config.Params, mode wms.Mode, policy core.DeployPolicy) time.Duration {
	s := core.NewStack(seed, prm)
	s.RegisterTransformation(workload.MatmulTransformation, prm.ImageLayersBytes[len(prm.ImageLayersBytes)-1])
	var makespan time.Duration
	s.Env.Go("main", func(p *sim.Proc) {
		defer s.Shutdown()
		if mode == wms.ModeServerless {
			if err := s.DeployFunction(p, workload.MatmulTransformation, policy); err != nil {
				panic(err)
			}
		}
		wf := workload.Chain("bench", 10, prm.MatrixBytes)
		res, err := s.Engine.RunWorkflow(p, wf, wms.AssignAll(mode))
		if err != nil {
			panic(err)
		}
		makespan = res.Makespan()
	})
	s.Env.Run()
	return makespan
}

// BenchmarkAblationNegotiation compares the per-job negotiation model
// (default; overheads add to the makespan) against a strict global cycle
// (which quantizes sequential workflows and hides overheads).
func BenchmarkAblationNegotiation(b *testing.B) {
	for _, mode := range []struct {
		name   string
		perJob bool
	}{{"per-job", true}, {"global-cycle", false}} {
		b.Run(mode.name, func(b *testing.B) {
			prm := config.Default()
			prm.PerJobNegotiation = mode.perJob
			var m time.Duration
			for i := 0; i < b.N; i++ {
				m = benchChain(1, prm, wms.ModeContainer, core.DeployPolicy{})
			}
			b.ReportMetric(m.Seconds(), "virtual_s")
		})
	}
}

// BenchmarkAblationPreStaging compares pre-staged images+containers
// (min-scale ≥ 1, pre-pull) with fully deferred provisioning
// (initial-scale 0, no pre-pull) — the §IV-2 knob. The signal lives in the
// first task's execution time: deferred provisioning pays the image pull
// and cold start there.
func BenchmarkAblationPreStaging(b *testing.B) {
	policies := []struct {
		name   string
		policy core.DeployPolicy
	}{
		{"pre-staged", core.ReusePolicy()},
		{"deferred", core.DeployPolicy{ContainerConcurrency: 1, CapCores: 1}},
	}
	for _, pc := range policies {
		pc := pc
		b.Run(pc.name, func(b *testing.B) {
			prm := config.Default()
			var firstTask float64
			for i := 0; i < b.N; i++ {
				firstTask = firstTaskExecSecs(1, prm, pc.policy)
			}
			b.ReportMetric(firstTask, "first_task_virtual_s")
		})
	}
}

// firstTaskExecSecs runs a serverless chain and returns the first task's
// on-worker execution time (start to finish, including the invocation).
func firstTaskExecSecs(seed uint64, prm config.Params, policy core.DeployPolicy) float64 {
	s := core.NewStack(seed, prm)
	s.RegisterTransformation(workload.MatmulTransformation, prm.ImageLayersBytes[len(prm.ImageLayersBytes)-1])
	var secs float64
	s.Env.Go("main", func(p *sim.Proc) {
		defer s.Shutdown()
		if err := s.DeployFunction(p, workload.MatmulTransformation, policy); err != nil {
			panic(err)
		}
		wf := workload.Chain("bench", 3, prm.MatrixBytes)
		res, err := s.Engine.RunWorkflow(p, wf, wms.AssignAll(wms.ModeServerless))
		if err != nil {
			panic(err)
		}
		first := res.Tasks[0]
		secs = (first.FinishedAt - first.StartedAt).Seconds()
	})
	s.Env.Run()
	return secs
}

// BenchmarkAblationPassByValue isolates the §IV-3 pass-by-value codec cost
// against an ideal zero-cost data plane (e.g. a shared filesystem read).
func BenchmarkAblationPassByValue(b *testing.B) {
	for _, pc := range []struct {
		name  string
		codec float64
	}{{"by-value", config.Default().PayloadCodecBps}, {"shared-fs", 0}} {
		pc := pc
		b.Run(pc.name, func(b *testing.B) {
			prm := config.Default()
			prm.PayloadCodecBps = pc.codec
			var m time.Duration
			for i := 0; i < b.N; i++ {
				m = benchChain(1, prm, wms.ModeServerless, core.ReusePolicy())
			}
			b.ReportMetric(m.Seconds(), "virtual_s")
		})
	}
}

// BenchmarkAblationContainerConcurrency compares one-request-per-container
// isolation (cc=1) against co-located tasks (cc=8) under a parallel burst.
func BenchmarkAblationContainerConcurrency(b *testing.B) {
	for _, cc := range []int{1, 8} {
		cc := cc
		b.Run(map[int]string{1: "cc1", 8: "cc8"}[cc], func(b *testing.B) {
			var burstSecs float64
			for i := 0; i < b.N; i++ {
				burstSecs = burstLatency(uint64(1), cc)
			}
			b.ReportMetric(burstSecs, "burst_virtual_s")
		})
	}
}

// burstLatency fires 16 concurrent invocations at a service capped at two
// replicas and returns the time until all complete.
func burstLatency(seed uint64, cc int) float64 {
	prm := config.Default()
	s := core.NewStack(seed, prm)
	s.RegisterTransformation(workload.MatmulTransformation, prm.ImageLayersBytes[len(prm.ImageLayersBytes)-1])
	var total time.Duration
	s.Env.Go("main", func(p *sim.Proc) {
		defer s.Shutdown()
		policy := core.DeployPolicy{
			MinScale: 2, InitialScale: 2, MaxScale: 2,
			ContainerConcurrency: cc, PrePullAllNodes: true, CapCores: 1,
		}
		if err := s.DeployFunction(p, workload.MatmulTransformation, policy); err != nil {
			panic(err)
		}
		svc, _ := s.Service(workload.MatmulTransformation)
		start := p.Now()
		wg := sim.NewWaitGroup(s.Env)
		for i := 0; i < 16; i++ {
			wg.Add(1)
			s.Env.Go("client", func(cp *sim.Proc) {
				defer wg.Done()
				_, _ = svc.Invoke(cp, knative.Request{
					From: cluster.SubmitNodeName, PayloadIn: 2 * prm.MatrixBytes,
					PayloadOut: prm.MatrixBytes, Work: 0.42,
				})
			})
		}
		wg.Wait(p)
		total = p.Now() - start
	})
	s.Env.Run()
	return total.Seconds()
}

// ---- Placement benchmarks ----

// BenchmarkKubePlacement measures the scheduler's placement hot path at
// cluster scale: waves of one-core pods pack an N-node cluster to CPU
// capacity and churn, with a free control plane and zero scheduler latency
// so wall time is dominated by pickNode (filter + score over candidates)
// and the pod-lifecycle events. The sampled sub-bench scores 10% of nodes
// (floor 100) — the scale sweep's configuration — against the exhaustive
// default; compare the ns/placement lines.
func BenchmarkKubePlacement(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		nodes   int
		percent int
	}{
		{"nodes=1000", 1000, 0},
		{"nodes=5000", 5000, 0},
		{"nodes=5000/sampled", 5000, 10},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) { benchKubePlacement(b, cfg.nodes, cfg.percent) })
	}
}

func benchKubePlacement(b *testing.B, nodes, samplePercent int) {
	prm := config.Default()
	prm.WorkerNodes = nodes
	prm.SchedulerLatency = 0
	prm.SchedSamplePercent = samplePercent
	pl := core.NewPlatform(1, prm)
	env, k := pl.Env, pl.Kube
	pl.Registry.Push(registry.NewImage("fn", []int64{1}, 1))
	env.Go("prepull", func(p *sim.Proc) {
		if err := pl.PrePull(p, "fn"); err != nil {
			panic(err)
		}
	})
	env.Run()

	waveCap := nodes * prm.CoresPerNode
	name := 0
	b.ResetTimer()
	for placed := 0; placed < b.N; {
		n := waveCap
		if rest := b.N - placed; rest < n {
			n = rest
		}
		env.Go("driver", func(p *sim.Proc) {
			pods := make([]*kube.Pod, 0, n)
			for i := 0; i < n; i++ {
				pod, err := k.CreatePod(kube.PodSpec{
					Name: fmt.Sprintf("fn-%d", name+i), Image: "fn", CPURequest: 1, MemMB: 64,
				})
				if err != nil {
					panic(err)
				}
				pods = append(pods, pod)
			}
			for _, pod := range pods {
				if err := k.WaitReady(p, pod); err != nil {
					panic(err)
				}
			}
			for _, pod := range pods {
				k.DeletePod(pod.Spec.Name)
			}
		})
		env.Run()
		name += n
		placed += n
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/placement")
}

// ---- Replication-runner benchmarks ----

// runnerBenchReps is the repetition count the runner benchmarks fan out —
// large enough to keep every worker busy at the compared pool sizes.
const runnerBenchReps = 8

// BenchmarkRunnerWorkers measures replication throughput (reps/s of the
// Fig. 5 centre point) at fixed pool sizes; compare the workers=1 and
// workers=4 lines to see the runner's scaling on this host.
func BenchmarkRunnerWorkers(b *testing.B) {
	mix := experiments.Mix{Native: 1.0 / 3, Container: 1.0 / 3, Serverless: 1.0 / 3}
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			o := quickOpts()
			o.Reps = runnerBenchReps
			o.Workers = workers
			start := time.Now()
			for i := 0; i < b.N; i++ {
				experiments.RunMix(o, mix)
			}
			elapsed := time.Since(start).Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(runnerBenchReps*b.N)/elapsed, "reps/s")
			}
		})
	}
}

// BenchmarkRunnerSpeedup runs the same seeded replication sweep at
// workers=1 and workers=4 within one benchmark and reports the wall-clock
// speedup directly (the CI bench-smoke step asserts nothing, but the metric
// makes scaling regressions visible in the -bench output).
func BenchmarkRunnerSpeedup(b *testing.B) {
	mix := experiments.Mix{Native: 1.0 / 3, Container: 1.0 / 3, Serverless: 1.0 / 3}
	o := quickOpts()
	o.Reps = runnerBenchReps
	var seqSecs, parSecs float64
	for i := 0; i < b.N; i++ {
		o.Workers = 1
		t0 := time.Now()
		seq := experiments.RunMix(o, mix)
		seqSecs += time.Since(t0).Seconds()

		o.Workers = 4
		t0 = time.Now()
		par := experiments.RunMix(o, mix)
		parSecs += time.Since(t0).Seconds()

		if seq != par {
			b.Fatalf("worker counts disagree: %+v vs %+v", seq, par)
		}
	}
	if parSecs > 0 {
		b.ReportMetric(float64(runnerBenchReps*b.N)/parSecs, "reps/s")
		b.ReportMetric(seqSecs/parSecs, "speedup_vs_workers1")
	}
}

// ---- Simulator micro-benchmarks ----

// BenchmarkSimKernelEvents measures raw event throughput of the DES kernel.
func BenchmarkSimKernelEvents(b *testing.B) {
	env := sim.NewEnv(1)
	env.Go("ticker", func(p *sim.Proc) {
		for {
			p.Sleep(time.Millisecond)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.RunFor(time.Millisecond)
	}
}

// BenchmarkSimKernelMillionTimers is the far-future stress: a million
// timers spread over five virtual minutes, armed and then drained to
// completion. No experiment holds a population near this size (the
// largest, full `repro scale`, peaks at 32,769 pending events); the
// benchmark bounds what such a population would cost in the one 4-ary
// heap.
func BenchmarkSimKernelMillionTimers(b *testing.B) {
	const nTimers = 1 << 20
	// One Env across iterations: after the first arm+drain the event free
	// list holds the whole population, so the steady state is
	// allocation-free and the numbers measure the queue, not the allocator.
	env := sim.NewEnv(1)
	rng := sim.NewRNG(42)
	fired := 0
	cb := func() { fired++ }
	// Warm-up drain: populate the free list so even a single timed
	// iteration measures the steady state.
	for j := 0; j < nTimers; j++ {
		env.At(env.Now()+time.Duration(1+rng.Intn(int(300*time.Second))), cb)
	}
	env.Run()
	fired = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := env.Now()
		for j := 0; j < nTimers; j++ {
			env.At(base+time.Duration(1+rng.Intn(int(300*time.Second))), cb)
		}
		env.Run()
	}
	b.StopTimer()
	if fired != b.N*nTimers {
		b.Fatalf("fired %d, want %d", fired, b.N*nTimers)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/nTimers, "ns/timer")
}

// BenchmarkSimKernelTimerChurn measures the cancellation-heavy regime: a
// standing population of far-future timers where 90% are cancelled and
// re-armed before they fire (the keepalive/backoff lifecycle). Cancelled
// timers leave lazily at the heap top or in a compaction sweep.
func BenchmarkSimKernelTimerChurn(b *testing.B) {
	env := sim.NewEnv(1)
	rng := sim.NewRNG(7)
	cb := func() {}
	const window = 4096
	ring := make([]sim.Timer, window)
	arm := func() sim.Timer {
		return env.After(time.Duration(1+rng.Intn(int(10*time.Second))), cb)
	}
	for i := range ring {
		ring[i] = arm()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i & (window - 1)
		if rng.Intn(10) != 0 { // 90% cancelled before firing
			ring[slot].Stop()
		}
		ring[slot] = arm()
		if i&1023 == 0 {
			env.RunFor(time.Millisecond)
		}
	}
	b.StopTimer()
	env.Run()
}

// BenchmarkFluidServer measures the processor-sharing model under churn.
func BenchmarkFluidServer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv(uint64(i))
		srv := fluid.New(env, "cpu", 8)
		for j := 0; j < 64; j++ {
			j := j
			env.Go("job", func(p *sim.Proc) {
				p.Sleep(time.Duration(j) * 10 * time.Millisecond)
				srv.RunReservedThen(1, 0, 0, p.Resumer())
				p.Await()
			})
		}
		env.Run()
	}
}

// ---- Workflow engine benchmark ----

// BenchmarkWorkflowFanOut measures the DAGMan-style engine at 10k-task
// scale: the 256×40 fan-out/fan-in DAG (10,242 tasks) on 32 nodes × 16
// cores, under the poll loop and under event-driven trigger release. The
// DAG is built once and shared read-only by every iteration, so ns/op and
// allocs/op are one stack plus one full workflow run.
func BenchmarkWorkflowFanOut(b *testing.B) {
	wf := workload.FanOutFanIn(sim.NewRNG(1), "fan", 256, 40, 4096, workload.UniformScale(0.5, 1.5))
	for _, mode := range []config.ExecMode{config.ExecPoll, config.ExecTrigger} {
		b.Run(mode.String(), func(b *testing.B) {
			prm := config.Default()
			prm.WorkerNodes = 32
			prm.CoresPerNode = 16
			prm.ExecMode = mode.String()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := core.NewStack(1, prm)
				s.Env.Go("main", func(p *sim.Proc) {
					defer s.Shutdown()
					s.RegisterTransformation(workload.MatmulTransformation, prm.ImageLayersBytes[len(prm.ImageLayersBytes)-1])
					res, err := s.Engine.RunWorkflow(p, wf, wms.AssignAll(wms.ModeNative))
					if err != nil {
						panic(err)
					}
					if len(res.Tasks) != wf.Len() {
						panic(fmt.Sprintf("%d of %d tasks settled", len(res.Tasks), wf.Len()))
					}
				})
				s.Env.Run()
			}
		})
	}
}
