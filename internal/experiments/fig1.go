package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/knative"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/sim"
)

// Fig1Row is one x-position of Fig. 1: total time to run `Tasks` sequential
// matrix multiplications under each container-management strategy, averaged
// over the seeded repetitions (mean ± sample stddev over N reps).
type Fig1Row struct {
	Tasks        int
	DockerSecs   float64
	DockerStd    float64
	KnativeSecs  float64
	KnativeStd   float64
	DockerPerTk  float64
	KnativePerTk float64
	N            int
}

// Fig1Result is the full figure: the series, the regression fits the paper
// annotates, and the measured cold start (1.48 s in the paper).
type Fig1Result struct {
	Rows          []Fig1Row
	DockerFit     metrics.Fit
	KnativeFit    metrics.Fit
	ColdStartSecs float64
	// SpeedupPct is the slope-based reduction in per-task time
	// ("up to 30%" in the paper).
	SpeedupPct float64
}

const fig1Image = "matmul-img"

// Fig1 reproduces the container-reuse motivation experiment (§III-B):
// docker runs every task in a fresh container from the CLI; knative sends
// sequential HTTP requests to a service that reuses one warm container.
func Fig1(o Options) Fig1Result {
	sizes := []int{20, 40, 60, 80, 100, 120, 140, 160}
	if o.Quick {
		sizes = []int{20, 60, 100}
	}
	var res Fig1Result
	type fig1Rep struct{ docker, knative, cold float64 }
	runs := sweep(o, sizes, func(n int, seed uint64) fig1Rep {
		d := fig1Docker(seed, o.Prm, n)
		k, cold := fig1Knative(seed, o.Prm, n)
		return fig1Rep{d.Seconds(), k.Seconds(), cold.Seconds()}
	})
	var xs, dy, ky []float64 // the regression series
	for si, n := range sizes {
		var dw, kw, cw metrics.Welford
		for _, rep := range runs[si] {
			dw.Add(rep.docker)
			kw.Add(rep.knative)
			cw.Add(rep.cold)
		}
		row := Fig1Row{
			Tasks:       n,
			DockerSecs:  dw.Mean(),
			DockerStd:   dw.Std(),
			KnativeSecs: kw.Mean(),
			KnativeStd:  kw.Std(),
			N:           dw.N(),
		}
		row.DockerPerTk = row.DockerSecs / float64(n)
		row.KnativePerTk = row.KnativeSecs / float64(n)
		res.Rows = append(res.Rows, row)
		res.ColdStartSecs = cw.Mean()
		xs = append(xs, float64(n))
		dy = append(dy, row.DockerSecs)
		ky = append(ky, row.KnativeSecs)
	}
	res.DockerFit, _ = metrics.LinearFit(xs, dy)
	res.KnativeFit, _ = metrics.LinearFit(xs, ky)
	if res.DockerFit.Slope > 0 {
		res.SpeedupPct = 100 * (1 - res.KnativeFit.Slope/res.DockerFit.Slope)
	}
	return res
}

// fig1Docker: n sequential `docker run` invocations on one worker, image
// already local (the overhead measured is container create/destroy, not
// pulls).
func fig1Docker(seed uint64, prm config.Params, n int) time.Duration {
	pl := core.NewPlatform(seed, prm)
	pl.Registry.Push(registry.NewImage(fig1Image, prm.ImageLayersBytes[:1], prm.ImageLayersBytes[1]))
	rt := pl.Runtimes[pl.Cluster.Workers[0].Name]

	var total time.Duration
	pl.Env.Go("docker-cli", func(p *sim.Proc) {
		defer pl.Shutdown()
		if err := rt.PullImage(p, fig1Image); err != nil {
			panic(err)
		}
		start := p.Now()
		for i := 0; i < n; i++ {
			if err := rt.DockerRun(p, fig1Image, pl.Cluster.NextTaskWork(), 0); err != nil {
				panic(err)
			}
		}
		total = p.Now() - start
	})
	pl.Env.Run()
	return total
}

// fig1Knative: n sequential HTTP invocations against a service scaled from
// zero — the first request cold-starts (the paper's 1.48 s annotation), the
// rest reuse the warm container.
func fig1Knative(seed uint64, prm config.Params, n int) (total, cold time.Duration) {
	pl := core.NewPlatform(seed, prm)
	pl.Registry.Push(registry.NewImage(fig1Image, prm.ImageLayersBytes[:1], prm.ImageLayersBytes[1]))

	pl.Env.Go("client", func(p *sim.Proc) {
		defer pl.Shutdown()
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
				cold = p.Now() - t0 - durationFromWork(prm.TaskWork(i)) // startup share of the cold request
			}
		}
		total = p.Now() - start
	})
	pl.Env.Run()
	return total, cold
}

func durationFromWork(coreSeconds float64) time.Duration {
	return time.Duration(coreSeconds * float64(time.Second))
}

// WriteTable renders the figure's series and annotations.
func (r Fig1Result) WriteTable(w io.Writer) error {
	tbl := metrics.NewTable("tasks", "docker_total_s", "docker_std_s", "knative_total_s", "knative_std_s", "docker_per_task_s", "knative_per_task_s", "n")
	for _, row := range r.Rows {
		tbl.AddRow(row.Tasks, row.DockerSecs, row.DockerStd, row.KnativeSecs, row.KnativeStd, row.DockerPerTk, row.KnativePerTk, row.N)
	}
	if err := tbl.Write(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w,
		"\ndocker fit:  %v\nknative fit: %v\ncold start:  %.2fs (paper: 1.48s)\nslope-based reduction: %.1f%% (paper: up to 30%%)\n",
		r.DockerFit, r.KnativeFit, r.ColdStartSecs, r.SpeedupPct)
	return err
}
