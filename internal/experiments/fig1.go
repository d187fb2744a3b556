package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/knative"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/sim"
)

// fig1Row is one x-position of Fig. 1: total time to run Tasks sequential
// matrix multiplications under each container-management strategy, averaged
// over the seeded repetitions (mean ± sample stddev over N reps).
type fig1Row struct {
	Tasks        int     `col:"tasks"`
	DockerSecs   float64 `col:"docker_total_s"`
	DockerStd    float64 `col:"docker_std_s"`
	KnativeSecs  float64 `col:"knative_total_s"`
	KnativeStd   float64 `col:"knative_std_s"`
	DockerPerTk  float64 `col:"docker_per_task_s"`
	KnativePerTk float64 `col:"knative_per_task_s"`
	N            int     `col:"n"`
	coldSecs     float64 // mean cold start of the knative arm
}

const fig1Image = "matmul-img"

type fig1Rep struct{ docker, knative, cold float64 }

// fig1 reproduces the container-reuse motivation experiment (§III-B):
// docker runs every task in a fresh container from the CLI; knative sends
// sequential HTTP requests to a service that reuses one warm container. The
// note gives the regression fits the paper annotates, the measured cold
// start (1.48 s in the paper) and the slope-based speedup.
var fig1 = study[int, fig1Rep, fig1Row]{
	cells: func(o Options) []int {
		return sized(o.Quick, []int{20, 40, 60, 80, 100, 120, 140, 160}, []int{20, 60, 100})
	},
	once: func(o Options, n int, seed uint64) fig1Rep {
		docker := fig1Docker(seed, o.Prm, n)
		knative, cold := fig1Knative(seed, o.Prm, n)
		return fig1Rep{docker, knative, cold}
	},
	fold: func(_ Options, n int, reps []fig1Rep) fig1Row {
		var dw, kw, cw metrics.Welford
		for _, rep := range reps {
			dw.Add(rep.docker)
			kw.Add(rep.knative)
			cw.Add(rep.cold)
		}
		return fig1Row{
			Tasks:        n,
			DockerSecs:   dw.Mean(),
			DockerStd:    dw.Std(),
			KnativeSecs:  kw.Mean(),
			KnativeStd:   kw.Std(),
			DockerPerTk:  dw.Mean() / float64(n),
			KnativePerTk: kw.Mean() / float64(n),
			N:            dw.N(),
			coldSecs:     cw.Mean(),
		}
	},
	report: func(_ Options, rows []fig1Row) report {
		docker, knative, speedup := fig1Fits(rows)
		return report{rows: rows, note: fmt.Sprintf(
			"\ndocker fit:  %v\nknative fit: %v\ncold start:  %.2fs (paper: 1.48s)\nslope-based reduction: %.1f%% (paper: up to 30%%)\n",
			docker, knative, rows[len(rows)-1].coldSecs, speedup)}
	},
}

// fig1Fits regresses each arm's total time on the task count and returns
// the slope-based reduction in per-task time ("up to 30%" in the paper).
func fig1Fits(rows []fig1Row) (docker, knative metrics.Fit, speedupPct float64) {
	var xs, dy, ky []float64
	for _, row := range rows {
		xs = append(xs, float64(row.Tasks))
		dy = append(dy, row.DockerSecs)
		ky = append(ky, row.KnativeSecs)
	}
	docker, _ = metrics.LinearFit(xs, dy)
	knative, _ = metrics.LinearFit(xs, ky)
	if docker.Slope > 0 {
		speedupPct = 100 * (1 - knative.Slope/docker.Slope)
	}
	return docker, knative, speedupPct
}

// fig1Platform is a serving platform with the matmul image in its
// registry.
func fig1Platform(seed uint64, prm config.Params) core.Platform {
	pl := core.NewPlatform(seed, prm)
	pl.Registry.Push(registry.NewImage(fig1Image, prm.ImageLayersBytes[:1], prm.ImageLayersBytes[1]))
	return pl
}

// fig1Docker: n sequential `docker run` invocations on one worker, image
// already local (the overhead measured is container create/destroy, not
// pulls). It returns their total time in seconds.
func fig1Docker(seed uint64, prm config.Params, n int) (total float64) {
	pl := fig1Platform(seed, prm)
	rt := pl.Runtimes[pl.Cluster.Workers[0].Name]
	runMain(pl.Env, &pl, 0, func(p *sim.Proc) {
		if err := rt.PullImage(p, fig1Image); err != nil {
			panic(err)
		}
		start := p.Now()
		for i := 0; i < n; i++ {
			if err := rt.DockerRun(p, fig1Image, pl.Cluster.NextTaskWork(), 0); err != nil {
				panic(err)
			}
		}
		total = (p.Now() - start).Seconds()
	})
	return total
}

// fig1Knative: n sequential HTTP invocations against a service scaled from
// zero — the first request cold-starts (the paper's 1.48 s annotation), the
// rest reuse the warm container. It returns their total time and the cold
// start, in seconds.
func fig1Knative(seed uint64, prm config.Params, n int) (total, cold float64) {
	pl := fig1Platform(seed, prm)
	runMain(pl.Env, &pl, 0, func(p *sim.Proc) {
		// Image staged on workers ("input data was stored on the node").
		if err := pl.PrePull(p, fig1Image); err != nil {
			panic(err)
		}
		svc, err := pl.Knative.Deploy(p, knative.ServiceSpec{
			Name:                 "matmul",
			Image:                fig1Image,
			ContainerConcurrency: 8,
			CPURequest:           1,
			MemMB:                512,
			CapCores:             1,
			AppInit:              prm.ColdStartAppInit,
		})
		if err != nil {
			panic(err)
		}
		start := p.Now()
		for i := 0; i < n; i++ {
			t0 := p.Now()
			// §III-B setup: "the input data was stored on the node" — the
			// HTTP event only triggers the task, it does not carry matrices
			// by value (that strategy arrives with the §IV integration).
			resp, err := svc.Invoke(p, knative.Request{
				From:       cluster.SubmitNodeName,
				PayloadIn:  256,
				PayloadOut: 256,
				Work:       pl.Cluster.NextTaskWork(),
			})
			if err != nil {
				panic(err)
			}
			if resp.Cold {
				// The startup share of the cold request.
				work := time.Duration(prm.TaskWork(i) * float64(time.Second))
				cold = (p.Now() - t0 - work).Seconds()
			}
		}
		total = (p.Now() - start).Seconds()
	})
	return total, cold
}
