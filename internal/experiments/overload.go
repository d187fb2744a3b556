package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/knative"
	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/sim"
)

// The overload experiment is not a paper figure: it measures how the stack
// degrades when offered load exceeds capacity. A fixed-scale serverless
// function (no autoscaler headroom) receives an open-loop Poisson arrival
// stream ramped past saturation, under four cumulative protection arms:
// none (the seed's unbounded ingress buffer), request deadlines, deadlines
// plus retry budgets, and the full stack with activator admission control
// (bounded waiting room + shed-on-estimated-wait) and circuit breakers.
// Without protection the system goes metastable — the queue grows without
// bound, every request is served long past its SLO, and goodput collapses —
// while the full stack sheds the excess at the door and keeps goodput at
// capacity.

const (
	// overloadPods fixes the service scale: MinScale = MaxScale, so capacity
	// is a constant the offered rate can be expressed against.
	overloadPods = 12
	// overloadWork is the per-request service demand in core-seconds.
	overloadWork = 0.25
	// overloadSLO is the client's end-to-end latency objective; completions
	// slower than this don't count as goodput.
	overloadSLO = time.Second
	// overloadDeadline is the propagated request deadline for the protected
	// arms: the SLO minus headroom for one service time, so a request that
	// passes the queue-proxy check still finishes inside the SLO.
	overloadDeadline = 700 * time.Millisecond
	// overloadDrain is how long after the arrival window closes the run
	// keeps serving before shutdown cuts off stragglers.
	overloadDrain = 3 * time.Second
	// overloadClientAttempts bounds one client's tries (1 + retries).
	overloadClientAttempts = 3
	// overloadClientBackoff is the client's pause between tries.
	overloadClientBackoff = 100 * time.Millisecond
	// overloadHorizon bounds one run in virtual time.
	overloadHorizon = 5 * time.Minute
)

// overloadArm is a cumulative protection level.
type overloadArm int

// The arms, each adding one mechanism over the previous.
const (
	// armNone is the seed behaviour: unbounded buffering, no deadlines.
	armNone overloadArm = iota
	// armDeadlines propagates a per-request deadline enforced at admission,
	// queue wake-ups, and the queue-proxy.
	armDeadlines
	// armBudgets adds token-bucket retry budgets on both the client and the
	// serving layer, capping retry amplification.
	armBudgets
	// armFull adds activator admission control (bounded waiting room,
	// shed-on-estimated-wait) and per-service circuit breakers.
	armFull
)

func (a overloadArm) String() string {
	return [...]string{"none", "deadlines", "+budgets", "full"}[a]
}

var overloadArms = []overloadArm{armNone, armDeadlines, armBudgets, armFull}

// overloadParams applies an arm's protection knobs to the base parameters.
func overloadParams(prm config.Params, arm overloadArm) config.Params {
	if arm >= armDeadlines {
		prm.InvokeDeadline = overloadDeadline
	}
	if arm >= armBudgets {
		prm.RetryBudgetRatio = 0.1
		prm.RetryBudgetBurst = 10
	}
	if arm >= armFull {
		prm.ActivatorQueueCap = 2 * overloadPods
		prm.BreakerFailures = 5
		prm.BreakerOpenFor = 10 * time.Second
		prm.BreakerHalfOpenProbes = 1
	}
	return prm
}

// overloadCapacity returns the fixed-scale service's saturation throughput
// in requests/s: every request holds one of the overloadPods serving slots
// for its work plus the queue-proxy overhead.
func overloadCapacity(prm config.Params) float64 {
	perSlot := overloadWork + prm.QueueProxyOverhead.Seconds()
	return float64(overloadPods) / perSlot
}

// overloadRun is one seeded run at one (arm, rate) point.
type overloadRun struct {
	// Arrivals is how many requests the open-loop generator issued.
	Arrivals int
	// Good counts completions within the SLO.
	Good int
	// ServerRequests is the serving layer's attempt counter, including
	// platform-internal retries — the numerator of retry amplification.
	ServerRequests int
	// Shed / DeadlineDrops are the service's protection counters
	// (admission sheds, deadline enforcement).
	Shed, DeadlineDrops int
	// P99Sec is the 99th-percentile latency over successful completions.
	P99Sec float64
	// WindowSec is the measurement window the goodput is divided by.
	WindowSec float64
}

// GoodputRPS is the rate of within-SLO completions over the arrival window.
func (r overloadRun) GoodputRPS() float64 {
	if r.WindowSec <= 0 {
		return 0
	}
	return float64(r.Good) / r.WindowSec
}

// overloadOnce executes one seeded open-loop run: Poisson arrivals at
// mult × capacity for the window, each arrival a client that invokes the
// function, retries failures (bounded, and budget-gated in the budget arms)
// while its SLO patience lasts, and records whether it completed in time.
func overloadOnce(seed uint64, prm config.Params, arm overloadArm, mult float64, quick bool) overloadRun {
	prm = overloadParams(prm, arm)
	window := sized(quick, 20*time.Second, 6*time.Second)
	s := core.NewStack(seed, prm)

	out := overloadRun{WindowSec: window.Seconds()}
	lambda := mult * overloadCapacity(prm)
	var clientBudget *resilience.RetryBudget
	if arm >= armBudgets {
		clientBudget = resilience.NewRetryBudget(prm.RetryBudgetRatio, prm.RetryBudgetBurst)
	}
	var latencies []float64

	s.Env.Go("main", func(p *sim.Proc) {
		s.RegisterTransformation("matmul", appLayer(prm))
		policy := core.DeployPolicy{
			MinScale:             overloadPods,
			InitialScale:         overloadPods,
			MaxScale:             overloadPods,
			ContainerConcurrency: 1,
			PrePullAllNodes:      true,
			CapCores:             1,
		}
		if err := s.DeployFunction(p, "matmul", policy); err != nil {
			panic(err)
		}
		svc, _ := s.Service("matmul")

		wg := sim.NewWaitGroup(s.Env)
		rng := p.Rand()
		end := p.Now() + window
		for {
			gap := time.Duration(rng.ExpFloat64() / lambda * float64(time.Second))
			if p.Now()+gap >= end {
				break
			}
			p.Sleep(gap)
			out.Arrivals++
			wg.Add(1)
			s.Env.Defer(func() { overloadClient(s.Env, svc, clientBudget, &out, &latencies, wg.Done) })
		}
		if until := end + overloadDrain; p.Now() < until {
			p.Sleep(until - p.Now())
		}
		s.Shutdown()
		wg.Wait(p)

		out.ServerRequests = svc.Requests
		ov := svc.Overload()
		out.Shed = ov.ShedFull + ov.ShedWait
		out.DeadlineDrops = ov.DeadlineDrops
	})
	s.Env.RunUntil(overloadHorizon)

	if len(latencies) > 0 {
		sort.Float64s(latencies)
		idx := (len(latencies)*99 + 99) / 100
		if idx > len(latencies) {
			idx = len(latencies)
		}
		out.P99Sec = latencies[idx-1]
	}
	return out
}

// overloadClient is one arrival: it invokes the function, retrying failures
// after a jittered backoff while its patience (the SLO), its attempt cap
// and the client budget allow, records the outcome in out, and then calls
// done.
func overloadClient(env *sim.Env, svc *knative.Service, budget *resilience.RetryBudget,
	out *overloadRun, latencies *[]float64, done func()) {
	start := env.Now()
	attempt := 1
	var try func()
	try = func() {
		svc.InvokeAsync(knative.Request{From: cluster.SubmitNodeName, Work: overloadWork}, func(_ knative.Response, err error) {
			if err == nil {
				lat := env.Now() - start
				*latencies = append(*latencies, lat.Seconds())
				if lat <= overloadSLO {
					out.Good++
				}
				budget.OnSuccess()
				done()
				return
			}
			// Give up when patience (the SLO) has run out, the attempt
			// cap is hit, or the budget denies the retry.
			if env.Now()-start >= overloadSLO || attempt >= overloadClientAttempts || !budget.TryRetry() {
				done()
				return
			}
			attempt++
			env.Delay(env.Rand().Jitter(overloadClientBackoff, 0.5), try)
		})
	}
	try()
}

// overloadRow aggregates the repetitions at one (arm, rate) point.
type overloadRow struct {
	Arm  overloadArm `col:"protection"`
	Mult float64     `col:"offered_x" fmt:"%.0fx"`
	// OfferedRPS is the arrival rate; GoodputRPS / GoodputFrac are within-
	// SLO completions per second, absolute and as a fraction of capacity.
	OfferedRPS   float64 `col:"offered_rps"`
	GoodputRPS   float64 `col:"goodput_rps"`
	GoodputFrac  float64 `col:"goodput_frac"`
	P99Sec       float64 `col:"p99_s"`
	ShedFrac     float64 `col:"shed/arr"` // admission sheds per arrival
	DeadlineFrac float64 `col:"ddl/arr"`  // deadline drops per arrival
	// Amplification is serving-layer attempts per arrival: >1 means retries
	// multiplied the offered load inside the platform.
	Amplification float64 `col:"amplification"`
}

type overloadCell struct {
	arm  overloadArm
	mult float64
}

// overload sweeps offered load from saturation to far past it for each
// protection arm. Every (arm, rate, rep) triple is an independent seeded
// simulation fanned across the pool.
var overload = study[overloadCell, overloadRun, overloadRow]{
	cells: func(o Options) []overloadCell {
		var cells []overloadCell
		for _, arm := range overloadArms {
			for _, mult := range sized(o.Quick, []float64{1, 2, 5, 8}, []float64{1, 5}) {
				cells = append(cells, overloadCell{arm, mult})
			}
		}
		return cells
	},
	once: func(o Options, c overloadCell, seed uint64) overloadRun {
		return overloadOnce(seed, o.Prm, c.arm, c.mult, o.Quick)
	},
	fold: func(o Options, c overloadCell, reps []overloadRun) overloadRow {
		capacity := overloadCapacity(o.Prm)
		var good, p99, shed, ddl, amp metrics.Welford
		for _, run := range reps {
			good.Add(run.GoodputRPS())
			p99.Add(run.P99Sec)
			if run.Arrivals > 0 {
				shed.Add(float64(run.Shed) / float64(run.Arrivals))
				ddl.Add(float64(run.DeadlineDrops) / float64(run.Arrivals))
				amp.Add(float64(run.ServerRequests) / float64(run.Arrivals))
			}
		}
		return overloadRow{c.arm, c.mult, c.mult * capacity, good.Mean(), good.Mean() / capacity,
			p99.Mean(), shed.Mean(), ddl.Mean(), amp.Mean()}
	},
	report: func(o Options, rows []overloadRow) report {
		return report{rows: rows, note: fmt.Sprintf("\noverload (robustness): open-loop Poisson arrivals into a fixed-scale\nfunction (%d pods, capacity %.1f req/s, SLO %s) under cumulative protections;\nwithout them the queue grows without bound and goodput collapses past\nsaturation, while deadlines + retry budgets + admission control + breakers\nshed the excess and hold goodput at capacity\n",
			overloadPods, overloadCapacity(o.Prm), overloadSLO)}
	},
}
