package knative

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/crt"
	"repro/internal/faults"
	"repro/internal/kube"
	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/trace"
)

// launcher starts one invocation at the run-queue slot of a process spawned
// now, and reports its outcome where that process would continue after
// Invoke returned.
type launcher func(env *sim.Env, svc *Service, r Request, done func(Response, error))

// launchProc runs the invocation in a process of its own, parked in Invoke.
func launchProc(env *sim.Env, svc *Service, r Request, done func(Response, error)) {
	env.Go("client", func(cp *sim.Proc) { done(svc.Invoke(cp, r)) })
}

// launchAsync starts the invocation as a continuation chain with no
// process of its own.
func launchAsync(env *sim.Env, svc *Service, r Request, done func(Response, error)) {
	env.Defer(func() { svc.InvokeAsync(r, done) })
}

// churnCoverage counts the paths a serving churn exercised, so the digest
// pins runs that actually reach each of them.
type churnCoverage struct {
	ok, cold, shed, deadline, circuit, budget, stageErr, shutdown, died int
	// retried counts backoff spans, so only a traced run counts it.
	retried, followUps, partitions, kills int
}

// servingChurn drives two services through a seeded churn: open-loop
// arrivals and bursts, per-request deadlines, pod kills, retries with
// jittered backoff, a tripping circuit breaker, a bounded activator room,
// partitions of the submit node from a worker and from the ingress of a
// worker-issued request, StageIn/StageOut hooks that wait and fail, and a
// shutdown with requests still queued. It returns a digest of every
// request's outcome, in completion order with its completion time, and of
// the services' counters at the end.
func servingChurn(t *testing.T, seed uint64, traced bool, launch launcher) (string, churnCoverage) {
	t.Helper()
	var cov churnCoverage
	prm := config.Default()
	{
		prm.InvokeRetry = config.RetryPolicy{MaxAttempts: 3, BaseDelay: 40 * time.Millisecond,
			MaxDelay: 400 * time.Millisecond, Multiplier: 2, JitterFrac: 0.3}
		prm.BreakerFailures = 2
		prm.BreakerOpenFor = 300 * time.Millisecond
		prm.ActivatorQueueCap = 12
		prm.RetryBudgetRatio = 0.1
		prm.RetryBudgetBurst = 4
	}
	f := newStack(sim.NewEnv(seed), prm)
	env := f.env
	// Partitions take the network's fault path. NewInjector forks env's
	// stream; restoring it keeps the draws the digests were recorded with.
	rngState := *env.Rand()
	in := faults.NewInjector(env)
	*env.Rand() = rngState
	f.cl.Net.AttachFaults(in)
	if traced {
		trace.New(env)
	}
	var log strings.Builder
	f.env.Go("main", func(p *sim.Proc) {
		f.prePull(p)
		coldSpec := baseSpec()
		coldSpec.Name = "cold"
		coldSpec.MaxScale = 3
		cold, err := f.kn.Deploy(p, coldSpec)
		if err != nil {
			t.Error(err)
			return
		}
		warmSpec := baseSpec()
		warmSpec.Name = "warm"
		warmSpec.ContainerConcurrency = 2
		warmSpec.CPURequest = 0.5
		warmSpec.MinScale = 1
		warmSpec.InitialScale = 2
		warmSpec.MaxScale = 4
		warm, err := f.kn.Deploy(p, warmSpec)
		if err != nil {
			t.Error(err)
			return
		}
		services := []*Service{cold, warm}
		rng := p.Rand()
		const window = 40 * time.Second
		end := p.Now() + window

		stageIn := func(parent *trace.Span, node string, done func(error)) {
			sp := trace.FromEnv(env).Start(parent, "test", "stage-in")
			env.Delay(time.Duration(env.Rand().Intn(80))*time.Millisecond, func() {
				f.cl.Net.TransferThen(cluster.SubmitNodeName, node, 64<<10, func() {
					var err error
					if env.Rand().Float64() < 0.1 {
						err = errors.New("stage-in: input missing")
					}
					sp.End()
					done(err)
				})
			})
		}
		stageOut := func(parent *trace.Span, node string, done func(error)) {
			sp := trace.FromEnv(env).Start(parent, "test", "stage-out")
			env.Delay(time.Duration(env.Rand().Intn(40))*time.Millisecond, func() {
				var err error
				if env.Rand().Float64() < 0.05 {
					err = errors.New("stage-out: share full")
				}
				sp.End()
				done(err)
			})
		}

		// Chaos: pod kills and partitions until the window closes.
		env.Go("chaos", func(cp *sim.Proc) {
			for cp.Now() < end {
				cp.Sleep(time.Duration(50+cp.Rand().Intn(600)) * time.Millisecond)
				switch cp.Rand().Intn(5) {
				case 0, 1, 2:
					services[cp.Rand().Intn(2)].killOnePod()
					cov.kills++
				case 3:
					w := fmt.Sprintf("worker%d", 1+cp.Rand().Intn(3))
					d := time.Duration(100+cp.Rand().Intn(900)) * time.Millisecond
					in.Schedule(faults.Fault{Kind: faults.KindNetPartition, At: cp.Now(), Duration: d, Target: cluster.SubmitNodeName + "|" + w})
					cov.partitions++
					cp.Sleep(d)
				}
			}
		})

		// send launches one request and logs its outcome. The outcome's
		// RNG draw, and the follow-up request it may send at once, make
		// the rest of the run depend on where the caller continues.
		var send func(id int, svc *Service, r Request)
		send = func(id int, svc *Service, r Request) {
			launch(env, svc, r, func(resp Response, err error) {
				draw := env.Rand().Intn(4)
				fmt.Fprintf(&log, "%d %s t=%d node=%s cold=%v q=%d draw=%d err=%v\n",
					id, svc.spec.Name, env.Now(), resp.PodNode, resp.Cold, resp.Queued, draw, err)
				switch {
				case err == nil:
					cov.ok++
					if resp.Cold {
						cov.cold++
					}
				case errors.Is(err, resilience.ErrCircuitOpen):
					cov.circuit++
				case errors.Is(err, resilience.ErrQueueFull), errors.Is(err, resilience.ErrWouldExpire):
					cov.shed++
				case errors.Is(err, resilience.ErrDeadlineExceeded):
					cov.deadline++
				case strings.Contains(err.Error(), "retry budget"):
					cov.budget++
				case strings.HasPrefix(err.Error(), "stage-"):
					cov.stageErr++
				case strings.Contains(err.Error(), "shut down"):
					cov.shutdown++
				default:
					cov.died++
				}
				if id > 0 && draw == 0 && env.Now() < end {
					cov.followUps++
					r.Deadline = 0
					send(-id, svc, r)
				}
			})
		}
		n := 0
		for p.Now() < end {
			p.Sleep(time.Duration(rng.ExpFloat64() * float64(120*time.Millisecond)))
			si := rng.Intn(2)
			svc := services[si]
			r := Request{From: cluster.SubmitNodeName, Work: 0.05 + rng.Float64()*0.6}
			if rng.Intn(5) == 0 {
				r.From = "worker1"
			}
			switch rng.Intn(4) {
			case 0:
				r.PayloadIn, r.PayloadOut = int64(rng.Intn(6<<20)), int64(rng.Intn(2<<20))
			case 1:
				r.Work = 0
			default:
				r.PayloadIn, r.PayloadOut = 2048, 1024
			}
			if rng.Intn(3) == 0 {
				r.Deadline = p.Now() + time.Duration(20+rng.Intn(2500))*time.Millisecond
			}
			if si == 1 && rng.Intn(2) == 0 {
				r.StageIn, r.StageOut = stageIn, stageOut
			}
			// A burst's requests are identical, so their transfers and
			// executions start together and depart together.
			burst := 1
			if rng.Intn(12) == 0 {
				burst = 4 + rng.Intn(8)
			}
			for ; burst > 0; burst-- {
				n++
				send(n, svc, r)
			}
		}
		// Shut down with a burst still queued on the cold service.
		p.Sleep(1500 * time.Millisecond)
		for i := 0; i < 6; i++ {
			launch(env, cold, Request{From: cluster.SubmitNodeName, Work: 2}, func(resp Response, err error) {
				fmt.Fprintf(&log, "tail %s t=%d err=%v\n", resp.PodNode, env.Now(), err)
				if err != nil && strings.Contains(err.Error(), "shut down") {
					cov.shutdown++
				}
			})
		}
		p.Sleep(50 * time.Millisecond)
		f.kn.Shutdown()
		for _, svc := range services {
			ov := svc.Overload()
			fmt.Fprintf(&log, "%s requests=%d cold=%d ddl=%d %+v\n", svc.spec.Name, svc.Requests, svc.ColdStarts, svc.DeadlineDrops, ov)
		}
	})
	env.Run()
	fmt.Fprintf(&log, "end=%d sent=%d\n", env.Now(), f.cl.Net.TotalBytesSent())
	for _, sp := range trace.FromEnv(env).Spans() {
		if sp.Name() == "backoff" {
			cov.retried++
		}
		fmt.Fprintf(&log, "span %d<%d %s/%s %d..%d %v\n", sp.ID(), sp.Parent(), sp.Substrate(), sp.Name(), sp.Start(), sp.EndTime(), sp.Labels())
	}
	sum := sha256.Sum256([]byte(log.String()))
	return fmt.Sprintf("%x", sum[:8]), cov
}

// newStack builds a started serving stack over env with the image pushed.
func newStack(env *sim.Env, prm config.Params) *fixture {
	cl := cluster.New(env, prm)
	reg := registry.New(cl.Net)
	reg.Push(registry.NewImage("matmul", prm.ImageLayersBytes[:1], prm.ImageLayersBytes[1]))
	k := kube.New(env, cl, crt.NewSet(env, cl, reg, prm), prm)
	k.Start()
	return &fixture{env: env, cl: cl, k: k, kn: New(env, cl, k, prm), prm: prm}
}

// servingChurnDigests are servingChurn's digests per seed, untraced and
// traced, recorded before the request path ran as a continuation chain,
// when every request was a process parked in Invoke for each of its waits.
var servingChurnDigests = map[uint64][2]string{
	1:  {"3b0f5a9fda01749e", "044a9043b3858a30"},
	2:  {"c2c47f856d6f825b", "1b5832179428b686"},
	3:  {"e2a3058b541f4859", "1454b04476cf45ec"},
	4:  {"b086c0f82dd1176d", "663d681d0c675d0e"},
	5:  {"e44f50e0d5bdff5f", "4d0d9f42a8b52c84"},
	6:  {"7452b60c180b2a8f", "f1960710193ab72b"},
	7:  {"9879c0ee6c57a4de", "0f592497f327e519"},
	8:  {"ba96f1cf0e7a8505", "6e86a6341cf693c0"},
	9:  {"7462705b9b19788a", "00dc867ab95118fa"},
	10: {"be496d23e59ede0a", "7ff10bd67824aaf9"},
	11: {"b91e82b1415076d2", "5e3185502394601f"},
	12: {"9e3dc35c97b44e9b", "d7185e5bc7e5c5fb"},
}

// TestServingChurnDifferential pins the serving layer's behaviour under
// servingChurn, for every launcher, untraced and traced. Across the seeds,
// every path the churn is meant to reach must be reached.
func TestServingChurnDifferential(t *testing.T) {
	launchers := []struct {
		name   string
		launch launcher
	}{{"proc", launchProc}, {"async", launchAsync}}
	for _, l := range launchers {
		var sum churnCoverage
		for seed := uint64(1); seed <= uint64(len(servingChurnDigests)); seed++ {
			want := servingChurnDigests[seed]
			for i, traced := range []bool{false, true} {
				got, cov := servingChurn(t, seed, traced, l.launch)
				if got != want[i] {
					t.Errorf("%s seed %d traced=%v: digest %s, want %s", l.name, seed, traced, got, want[i])
				}
				if traced {
					sum.add(cov)
				}
			}
		}
		t.Logf("%s: %+v", l.name, sum)
		for name, n := range map[string]int{"ok": sum.ok, "cold": sum.cold, "shed": sum.shed,
			"deadline": sum.deadline, "circuit": sum.circuit, "budget": sum.budget, "stageErr": sum.stageErr,
			"shutdown": sum.shutdown, "died": sum.died, "retried": sum.retried, "followUps": sum.followUps, "partitions": sum.partitions,
			"kills": sum.kills} {
			if n == 0 {
				t.Errorf("%s: the churn never reached %s", l.name, name)
			}
		}
	}
}

func (c *churnCoverage) add(o churnCoverage) {
	c.ok += o.ok
	c.cold += o.cold
	c.shed += o.shed
	c.deadline += o.deadline
	c.circuit += o.circuit
	c.budget += o.budget
	c.stageErr += o.stageErr
	c.shutdown += o.shutdown
	c.died += o.died
	c.retried += o.retried
	c.followUps += o.followUps
	c.partitions += o.partitions
	c.kills += o.kills
}
