package experiments

import (
	"fmt"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/wms"
	"repro/internal/workload"
)

// fig2Row is one x-position of Fig. 2: time to execute Tasks parallel
// matrix multiplications through Pegasus+HTCondor in each environment
// (mean ± sample stddev over N seeded repetitions).
type fig2Row struct {
	Tasks         int     `col:"tasks"`
	NativeSecs    float64 `col:"native_s"`
	NativeStd     float64 `col:"native_std_s"`
	KnativeSecs   float64 `col:"knative_s"`
	KnativeStd    float64 `col:"knative_std_s"`
	ContainerSecs float64 `col:"container_s"`
	ContainerStd  float64 `col:"container_std_s"`
	N             int     `col:"n"`
}

// The three modes stay inside one pool unit, so each unit is a chunky,
// fully independent simulation triple.
type fig2Rep struct{ native, knative, container float64 }

// fig2 reproduces the parallel-scaling motivation experiment (§III-C): a
// fan-out of independent tasks submitted at once, measured from first
// dispatch to last completion (the negotiation wait before the first match
// is a constant offset the regression's intercept absorbs; we exclude it so
// the series is comparable across jittered seeds). The note gives the
// regression slopes the paper reports (native 0.28, knative 0.30,
// container 0.96).
var fig2 = study[int, fig2Rep, fig2Row]{
	cells: func(o Options) []int { return sized(o.Quick, []int{2, 4, 8, 12, 16, 20, 24}, []int{4, 12, 20}) },
	once: func(o Options, n int, seed uint64) fig2Rep {
		return fig2Rep{
			native:    fig2Run(seed, o.Prm, n, wms.ModeNative).Seconds(),
			knative:   fig2Run(seed, o.Prm, n, wms.ModeServerless).Seconds(),
			container: fig2Run(seed, o.Prm, n, wms.ModeContainer).Seconds(),
		}
	},
	fold: func(_ Options, n int, reps []fig2Rep) fig2Row {
		var nw, kw, cw metrics.Welford
		for _, rep := range reps {
			nw.Add(rep.native)
			kw.Add(rep.knative)
			cw.Add(rep.container)
		}
		return fig2Row{n, nw.Mean(), nw.Std(), kw.Mean(), kw.Std(), cw.Mean(), cw.Std(), nw.N()}
	},
	report: func(_ Options, rows []fig2Row) report {
		native, knative, container := fig2Fits(rows)
		return report{rows: rows, note: fmt.Sprintf(
			"\nnative fit:    %v (paper slope: 0.28)\nknative fit:   %v (paper slope: 0.30)\ncontainer fit: %v (paper slope: 0.96)\n",
			native, knative, container)}
	},
}

// fig2Fits regresses each mode's time on the task count.
func fig2Fits(rows []fig2Row) (native, knative, container metrics.Fit) {
	var xs, ny, ky, cy []float64
	for _, row := range rows {
		xs = append(xs, float64(row.Tasks))
		ny = append(ny, row.NativeSecs)
		ky = append(ky, row.KnativeSecs)
		cy = append(cy, row.ContainerSecs)
	}
	native, _ = metrics.LinearFit(xs, ny)
	knative, _ = metrics.LinearFit(xs, ky)
	container, _ = metrics.LinearFit(xs, cy)
	return native, knative, container
}

// fig2Run executes one fan-out through the full stack and returns the time
// from the first task's dispatch to the last task's completion. The batch
// is submitted at once and matched in a single negotiation cycle (cycle
// mode), as a one-shot parallel submission is in a real condor pool; the
// per-task cost is then the serialized dispatch + transfer pipeline the
// paper's regression slopes capture.
func fig2Run(seed uint64, prm config.Params, n int, mode wms.Mode) time.Duration {
	prm.PerJobNegotiation = false
	res, err := workflowRun{
		wf:     workload.FanOut("fan", n, prm.MatrixBytes),
		mode:   mode,
		policy: core.DefaultPolicy(),
	}.on(core.NewStack(seed, prm))
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
	return last - first
}
