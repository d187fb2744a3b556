package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/wms"
	"repro/internal/workload"
)

// Fig2Row is one x-position of Fig. 2: time to execute `Tasks` parallel
// matrix multiplications through Pegasus+HTCondor in each environment
// (mean ± sample stddev over N seeded repetitions).
type Fig2Row struct {
	Tasks         int
	NativeSecs    float64
	NativeStd     float64
	KnativeSecs   float64
	KnativeStd    float64
	ContainerSecs float64
	ContainerStd  float64
	N             int
}

// Fig2Result is the figure plus the regression slopes the paper reports
// (native 0.28, knative 0.30, container 0.96).
type Fig2Result struct {
	Rows         []Fig2Row
	NativeFit    metrics.Fit
	KnativeFit   metrics.Fit
	ContainerFit metrics.Fit
}

// Fig2 reproduces the parallel-scaling motivation experiment (§III-C): a
// fan-out of independent tasks submitted at once, measured from first
// dispatch to last completion (the negotiation wait before the first match
// is a constant offset the regression's intercept absorbs; we exclude it so
// the series is comparable across jittered seeds).
func Fig2(o Options) Fig2Result {
	sizes := []int{2, 4, 8, 12, 16, 20, 24}
	if o.Quick {
		sizes = []int{4, 12, 20}
	}
	var res Fig2Result
	// The three modes stay inside one pool unit, so each unit is a chunky,
	// fully independent simulation triple.
	type fig2Rep struct{ native, knative, container float64 }
	runs := sweep(o, sizes, func(n int, seed uint64) fig2Rep {
		return fig2Rep{
			native:    fig2Run(seed, o, n, wms.ModeNative).Seconds(),
			knative:   fig2Run(seed, o, n, wms.ModeServerless).Seconds(),
			container: fig2Run(seed, o, n, wms.ModeContainer).Seconds(),
		}
	})
	var xs, ny, ky, cy []float64 // the regression series
	for si, n := range sizes {
		var nw, kw, cw metrics.Welford
		for _, rep := range runs[si] {
			nw.Add(rep.native)
			kw.Add(rep.knative)
			cw.Add(rep.container)
		}
		res.Rows = append(res.Rows, Fig2Row{
			Tasks:         n,
			NativeSecs:    nw.Mean(),
			NativeStd:     nw.Std(),
			KnativeSecs:   kw.Mean(),
			KnativeStd:    kw.Std(),
			ContainerSecs: cw.Mean(),
			ContainerStd:  cw.Std(),
			N:             nw.N(),
		})
		xs = append(xs, float64(n))
		ny = append(ny, nw.Mean())
		ky = append(ky, kw.Mean())
		cy = append(cy, cw.Mean())
	}
	res.NativeFit, _ = metrics.LinearFit(xs, ny)
	res.KnativeFit, _ = metrics.LinearFit(xs, ky)
	res.ContainerFit, _ = metrics.LinearFit(xs, cy)
	return res
}

// fig2Run executes one fan-out through the full stack and returns the time
// from the first task's dispatch to the last task's completion. The batch
// is submitted at once and matched in a single negotiation cycle (cycle
// mode), as a one-shot parallel submission is in a real condor pool; the
// per-task cost is then the serialized dispatch + transfer pipeline the
// paper's regression slopes capture.
func fig2Run(seed uint64, o Options, n int, mode wms.Mode) time.Duration {
	prm := o.Prm
	prm.PerJobNegotiation = false
	o.Prm = prm
	s := core.NewStack(seed, o.Prm)
	s.RegisterTransformation(workload.MatmulTransformation, o.Prm.ImageLayersBytes[len(o.Prm.ImageLayersBytes)-1])
	var span time.Duration
	s.Env.Go("main", func(p *sim.Proc) {
		if mode == wms.ModeServerless {
			if err := s.DeployFunction(p, workload.MatmulTransformation, core.DefaultPolicy()); err != nil {
				panic(err)
			}
		}
		wf := workload.FanOut("fan", n, o.Prm.MatrixBytes)
		res, err := s.Engine.RunWorkflow(p, wf, wms.AssignAll(mode))
		if err != nil {
			panic(err)
		}
		var first, last time.Duration = 1 << 62, 0
		for _, t := range res.Tasks {
			if t.StartedAt < first {
				first = t.StartedAt
			}
			if t.FinishedAt > last {
				last = t.FinishedAt
			}
		}
		span = last - first
		s.Shutdown()
	})
	s.Env.Run()
	return span
}

// WriteTable renders the figure's series and slopes.
func (r Fig2Result) WriteTable(w io.Writer) error {
	tbl := metrics.NewTable("tasks", "native_s", "native_std_s", "knative_s", "knative_std_s", "container_s", "container_std_s", "n")
	for _, row := range r.Rows {
		tbl.AddRow(row.Tasks, row.NativeSecs, row.NativeStd, row.KnativeSecs, row.KnativeStd, row.ContainerSecs, row.ContainerStd, row.N)
	}
	if err := tbl.Write(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w,
		"\nnative fit:    %v (paper slope: 0.28)\nknative fit:   %v (paper slope: 0.30)\ncontainer fit: %v (paper slope: 0.96)\n",
		r.NativeFit, r.KnativeFit, r.ContainerFit)
	return err
}
