package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/knative"
	"repro/internal/kpa"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The traffic experiment is the autoscaler study: a multi-tenant serving
// platform (hundreds of Knative services with a Zipf popularity mix)
// receives an open-loop diurnal arrival stream with a platform-wide flash
// crowd, and the same trace is replayed against several KPA
// parameterizations. Per arm it reports tail latency (p50/p99/p999),
// cold-start rate, shed and deadline-drop rates, and pod-seconds — the
// capacity/latency trade-off each autoscaler configuration picks. The full
// run pushes ~10^6 requests through the activator/queue-proxy path.

const (
	// trafficWork is the per-request service demand in core-seconds; small,
	// so a million requests stay simulable and per-pod throughput is
	// 1/(work+proxy overhead) ≈ 24 req/s at container concurrency 1.
	trafficWork = 0.03
	// trafficDeadline bounds every request end to end; with admission
	// control it also drives shed-on-estimated-wait.
	trafficDeadline = 10 * time.Second
	// trafficQueueCap bounds each service's activator waiting room.
	trafficQueueCap = 256
	// trafficZipfAlpha skews the per-tenant popularity mix.
	trafficZipfAlpha = 1.0
	// trafficDiurnalSwing is the relative amplitude of the day/night curve.
	trafficDiurnalSwing = 0.4
	// trafficFlashBoost multiplies the platform rate during the crowd.
	trafficFlashBoost = 2.5
	// trafficDrain keeps serving after the arrival window closes so
	// stragglers finish before shutdown.
	trafficDrain = 5 * time.Second
	// trafficPodSample is the cadence of the pod-seconds integrator.
	trafficPodSample = 500 * time.Millisecond
	// trafficHorizon bounds one run in virtual time.
	trafficHorizon = 15 * time.Minute
)

// trafficSize is the scale of one run.
type trafficSize struct {
	Services int
	TotalRPS float64
	Window   time.Duration
	Nodes    int
}

func trafficSizeFor(quick bool) trafficSize {
	return sized(quick, trafficSize{Services: 200, TotalRPS: 520, Window: 100 * time.Second, Nodes: 16},
		trafficSize{Services: 12, TotalRPS: 60, Window: 12 * time.Second, Nodes: 3})
}

// trafficArm is one autoscaler parameterization under test.
type trafficArm struct {
	Name string
	// Params mutates the platform-level autoscaler knobs.
	Params func(*config.Params)
	// Spec mutates each service's spec (metric, target).
	Spec func(*knative.ServiceSpec)
}

// trafficArms are the configurations the study compares: the seed defaults,
// a twitchier panic configuration, rate-clamped scaling with a scale-down
// delay, and RPS-driven scaling.
var trafficArms = []trafficArm{
	{Name: "seed", Params: func(*config.Params) {}},
	{Name: "fast-panic", Params: func(prm *config.Params) {
		prm.AutoscalerTick = time.Second
		prm.StableWindow = 30 * time.Second
		prm.PanicWindow = 3 * time.Second
	}},
	{Name: "clamped", Params: func(prm *config.Params) {
		prm.MaxScaleUpRate = 10
		prm.MaxScaleDownRate = 2
		prm.ScaleDownDelay = 20 * time.Second
	}},
	{Name: "rps", Params: func(*config.Params) {}, Spec: func(spec *knative.ServiceSpec) {
		spec.ScalingMetric = kpa.MetricRPS
		spec.Target = 10 // requests/s per pod
	}},
}

// trafficRun is one seeded replay of the trace against one arm.
type trafficRun struct {
	Arrivals      int
	Completed     int
	ColdStarts    int
	Shed          int
	DeadlineDrops int
	// P50/P99/P999 are latency percentiles over completions, seconds.
	P50, P99, P999 float64
	// PodSeconds integrates ready pods over the arrival window.
	PodSeconds float64
}

// trafficOnce executes one seeded run: deploy the tenant fleet, replay the
// open-loop trace, and collect the arm's scorecard.
func trafficOnce(seed uint64, base config.Params, arm trafficArm, quick bool) trafficRun {
	size := trafficSizeFor(quick)
	prm := base
	prm.WorkerNodes = size.Nodes
	prm.InvokeDeadline = trafficDeadline
	prm.ActivatorQueueCap = trafficQueueCap
	arm.Params(&prm)

	pl := core.NewPlatform(seed, prm)
	env := pl.Env
	pl.Registry.Push(registry.NewImage("fn", prm.ImageLayersBytes[:1], prm.ImageLayersBytes[1]))

	// The platform-wide shape: one diurnal cycle across the window with a
	// flash crowd through the middle. Tenants split it by Zipf popularity.
	shape := workload.FlashCrowd(
		workload.DiurnalRate(size.TotalRPS, trafficDiurnalSwing, size.Window),
		size.Window*55/100, size.Window/10, trafficFlashBoost)
	peak := size.TotalRPS * (1 + trafficDiurnalSwing) * trafficFlashBoost
	mix := workload.TenantMix(size.Services, trafficZipfAlpha, shape)

	var out trafficRun
	var latencies []float64
	services := make([]*knative.Service, size.Services)

	env.Go("main", func(p *sim.Proc) {
		// Stage the image on every worker up front so the study measures
		// pod cold starts, not a one-time registry stampede.
		pull := sim.NewWaitGroup(env)
		for _, w := range pl.Cluster.Workers {
			pull.Add(1)
			env.Go("pull-"+w.Name, func(pp *sim.Proc) {
				defer pull.Done()
				if err := pl.Runtimes[w.Name].PullImage(pp, "fn"); err != nil {
					panic(err)
				}
			})
		}
		pull.Wait(p)

		for i := range services {
			spec := knative.ServiceSpec{
				Name:                 fmt.Sprintf("svc-%03d", i),
				Image:                "fn",
				ContainerConcurrency: 1,
				CPURequest:           0.5,
				MemMB:                256,
				CapCores:             1,
				AppInit:              prm.ColdStartAppInit,
			}
			if arm.Spec != nil {
				arm.Spec(&spec)
			}
			svc, err := pl.Knative.Deploy(p, spec)
			if err != nil {
				panic(err)
			}
			services[i] = svc
		}

		start := p.Now()
		end := start + size.Window
		wg := sim.NewWaitGroup(env)

		// The pod-seconds integrator samples the fleet's ready count.
		wg.Add(1)
		env.Go("podmeter", func(mp *sim.Proc) {
			defer wg.Done()
			for mp.Now() < end {
				mp.Sleep(trafficPodSample)
				ready := 0
				for _, svc := range services {
					ready += svc.ReadyPods()
				}
				out.PodSeconds += float64(ready) * trafficPodSample.Seconds()
			}
		})

		// One open-loop generator per tenant replays its share of the
		// trace; every arrival is an independent client (no retries).
		for i, svc := range services {
			wg.Add(1)
			env.Go(fmt.Sprintf("gen-%03d", i), func(gp *sim.Proc) {
				defer wg.Done()
				rng := gp.Rand()
				workload.OpenLoop(rng, mix[i], peak, size.Window, func(at time.Duration) bool {
					if wake := start + at; wake > gp.Now() {
						gp.Sleep(wake - gp.Now())
					}
					out.Arrivals++
					wg.Add(1)
					env.Defer(func() {
						t0 := env.Now()
						svc.InvokeAsync(knative.Request{
							From:       cluster.SubmitNodeName,
							PayloadIn:  2048,
							PayloadOut: 1024,
							Work:       trafficWork,
						}, func(_ knative.Response, err error) {
							defer wg.Done()
							if err != nil {
								return
							}
							out.Completed++
							latencies = append(latencies, (env.Now() - t0).Seconds())
						})
					})
					return true
				})
			})
		}

		if until := end + trafficDrain; p.Now() < until {
			p.Sleep(until - p.Now())
		}
		pl.Shutdown()
		wg.Wait(p)

		for _, svc := range services {
			out.ColdStarts += svc.ColdStarts
			ov := svc.Overload()
			out.Shed += ov.ShedFull + ov.ShedWait
			out.DeadlineDrops += ov.DeadlineDrops
		}
	})
	env.RunUntil(trafficHorizon)

	if len(latencies) > 0 {
		out.P50 = metrics.Percentile(latencies, 50)
		out.P99 = metrics.Percentile(latencies, 99)
		out.P999 = metrics.Percentile(latencies, 99.9)
	}
	return out
}

// trafficRow is one arm's scorecard averaged over repetitions.
type trafficRow struct {
	Arm      string  `col:"autoscaler"`
	Arrivals float64 `col:"arrivals"` // mean arrivals per rep
	P50Ms    float64 `col:"p50_ms"`
	P99Ms    float64 `col:"p99_ms"`
	P999Ms   float64 `col:"p999_ms"`
	ColdFrac float64 `col:"cold/req"` // cold starts per completion
	ShedFrac float64 `col:"shed/arr"` // admission sheds per arrival
	DdlFrac  float64 `col:"ddl/arr"`  // deadline drops per arrival
	PodSecs  float64 `col:"pod_s"`    // mean pod-seconds per rep
	arrivals int     // total across reps
}

// traffic replays the same seeded traces against each autoscaler arm.
// Every (arm, rep) pair is an independent simulation fanned across the
// worker pool; results are identical at any worker count.
var traffic = study[trafficArm, trafficRun, trafficRow]{
	cells: func(Options) []trafficArm { return trafficArms },
	once: func(o Options, arm trafficArm, seed uint64) trafficRun {
		return trafficOnce(seed, o.Prm, arm, o.Quick)
	},
	fold: func(_ Options, arm trafficArm, reps []trafficRun) trafficRow {
		row := trafficRow{Arm: arm.Name}
		var arr, p50, p99, p999, cold, shed, ddl, podsec metrics.Welford
		for _, run := range reps {
			row.arrivals += run.Arrivals
			arr.Add(float64(run.Arrivals))
			p50.Add(run.P50 * 1000)
			p99.Add(run.P99 * 1000)
			p999.Add(run.P999 * 1000)
			if run.Completed > 0 {
				cold.Add(float64(run.ColdStarts) / float64(run.Completed))
			}
			if run.Arrivals > 0 {
				shed.Add(float64(run.Shed) / float64(run.Arrivals))
				ddl.Add(float64(run.DeadlineDrops) / float64(run.Arrivals))
			}
			podsec.Add(run.PodSeconds)
		}
		row.Arrivals, row.P50Ms, row.P99Ms, row.P999Ms = arr.Mean(), p50.Mean(), p99.Mean(), p999.Mean()
		row.ColdFrac, row.ShedFrac, row.DdlFrac, row.PodSecs = cold.Mean(), shed.Mean(), ddl.Mean(), podsec.Mean()
		return row
	},
	report: func(_ Options, rows []trafficRow) report {
		total := 0
		for _, row := range rows {
			total += row.arrivals
		}
		return report{rows: rows, note: fmt.Sprintf("\ntraffic (autoscaler study): %d total open-loop arrivals, Zipf tenant mix\nover a diurnal curve with a %gx flash crowd, replayed per KPA\nparameterization; tail latency and cold starts trade against pod-seconds\n",
			total, trafficFlashBoost)}
	},
}
