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

// Mix is a point on the (native, container, serverless) simplex of Fig. 5.
type Mix struct {
	Native     float64
	Container  float64
	Serverless float64
}

func (m Mix) String() string {
	return fmt.Sprintf("%.2f/%.2f/%.2f", m.Native, m.Container, m.Serverless)
}

// MixResult is the paper's metric for one mix: the average (over seeds) of
// the slowest makespan among the concurrent workflows (§V-D), with the
// sample stddev and repetition count alongside.
type MixResult struct {
	Mix          Mix
	MakespanSecs float64
	StdSecs      float64
	N            int
}

// Fig5Result holds the ternary sweep of Fig. 5.
type Fig5Result struct {
	Points []MixResult
}

// Fig6Result holds the five highlighted scenarios of Fig. 6.
type Fig6Result struct {
	Scenarios []Fig6Scenario
}

// Fig6Scenario is one bar of Fig. 6.
type Fig6Scenario struct {
	Label string
	MixResult
	// VsNative is the makespan relative to the all-native bar.
	VsNative float64
}

// RunMix executes the §V-C workload — WorkflowsPerRun concurrent chains of
// TasksPerWorkflow sequential matmuls, tasks distributed randomly across
// environments by the mix weights — and returns the average slowest
// makespan over o.Reps seeds.
func RunMix(o Options, mix Mix) MixResult {
	return runMixes(o, []Mix{mix})[0]
}

// runMixes fans every (mix, rep) pair of the §V-C workload across the pool
// at once and folds each mix's reps into its MixResult. The chains are built
// once and shared read-only by every run: a run never mutates a Workflow.
func runMixes(o Options, mixes []Mix) []MixResult {
	workflows, tasks := o.Prm.WorkflowsPerRun, o.Prm.TasksPerWorkflow
	if o.Quick {
		workflows, tasks = 4, 4
	}
	wfs := workload.ConcurrentChains(workflows, tasks, o.Prm.MatrixBytes)
	runs := sweep(o, mixes, func(mix Mix, seed uint64) float64 {
		return runMixOnce(seed, o, mix, wfs)
	})
	out := make([]MixResult, len(mixes))
	for mi, mix := range mixes {
		var w metrics.Welford
		for _, secs := range runs[mi] {
			w.Add(secs)
		}
		out[mi] = MixResult{Mix: mix, MakespanSecs: w.Mean(), StdSecs: w.Std(), N: w.N()}
	}
	return out
}

// runMixOnce executes one seeded run of the §V-C workload wfs under the mix
// and returns the slowest concurrent workflow's makespan in seconds.
func runMixOnce(seed uint64, o Options, mix Mix, wfs []*wms.Workflow) float64 {
	s := core.NewStack(seed, o.Prm)
	s.RegisterTransformation(workload.MatmulTransformation, o.Prm.ImageLayersBytes[len(o.Prm.ImageLayersBytes)-1])
	var slowest time.Duration
	s.Env.Go("main", func(p *sim.Proc) {
		if mix.Serverless > 0 {
			if err := s.DeployFunction(p, workload.MatmulTransformation, core.ReusePolicy()); err != nil {
				panic(err)
			}
		}
		assign := wms.AssignFractions(s.Env.Rand().Fork(), mix.Native, mix.Container, mix.Serverless)
		res, err := s.RunConcurrentWorkflows(p, wfs, assign)
		if err != nil {
			panic(err)
		}
		slowest = res.SlowestMakespan()
		s.Shutdown()
	})
	s.Env.Run()
	return slowest.Seconds()
}

// Fig5 sweeps the mix simplex on a grid (step 0.25 full-size, 0.5 quick)
// — the data behind the ternary plot. The whole (mix, rep) grid fans out
// across the pool at once, so the sweep scales with cores rather than being
// limited to the per-mix repetition count.
func Fig5(o Options) Fig5Result {
	step := 0.25
	if o.Quick {
		step = 0.5
	}
	var mixes []Mix
	n := int(1.0/step + 0.5)
	for i := 0; i <= n; i++ {
		for j := 0; i+j <= n; j++ {
			mixes = append(mixes, Mix{
				Native:     float64(i) * step,
				Container:  float64(j) * step,
				Serverless: float64(n-i-j) * step,
			})
		}
	}
	return Fig5Result{Points: runMixes(o, mixes)}
}

// Fig6Mixes are the five highlighted combinations of Fig. 6, in the paper's
// bar order.
func Fig6Mixes() []Fig6Scenario {
	return []Fig6Scenario{
		{Label: "all-native", MixResult: MixResult{Mix: Mix{Native: 1}}},
		{Label: "half-knative-half-native", MixResult: MixResult{Mix: Mix{Native: 0.5, Serverless: 0.5}}},
		{Label: "all-knative", MixResult: MixResult{Mix: Mix{Serverless: 1}}},
		{Label: "half-container-half-native", MixResult: MixResult{Mix: Mix{Native: 0.5, Container: 0.5}}},
		{Label: "all-container", MixResult: MixResult{Mix: Mix{Container: 1}}},
	}
}

// Fig6 evaluates the five highlighted mixes, all fanned out at once.
func Fig6(o Options) Fig6Result {
	res := Fig6Result{Scenarios: Fig6Mixes()}
	mixes := make([]Mix, len(res.Scenarios))
	for i, sc := range res.Scenarios {
		mixes[i] = sc.Mix
	}
	for i, mr := range runMixes(o, mixes) {
		res.Scenarios[i].MixResult = mr
	}
	if base := res.Scenarios[0].MakespanSecs; base > 0 {
		for i := range res.Scenarios {
			res.Scenarios[i].VsNative = res.Scenarios[i].MakespanSecs / base
		}
	}
	return res
}

// WriteTable renders the ternary sweep.
func (r Fig5Result) WriteTable(w io.Writer) error {
	tbl := metrics.NewTable("native", "container", "serverless", "slowest_makespan_s", "std_s", "n")
	for _, pt := range r.Points {
		tbl.AddRow(pt.Mix.Native, pt.Mix.Container, pt.Mix.Serverless, pt.MakespanSecs, pt.StdSecs, pt.N)
	}
	return tbl.Write(w)
}

// WriteTable renders the five bars with the paper's reference points.
func (r Fig6Result) WriteTable(w io.Writer) error {
	tbl := metrics.NewTable("scenario", "mix(n/c/s)", "slowest_makespan_s", "std_s", "n", "vs_native")
	for _, s := range r.Scenarios {
		tbl.AddRow(s.Label, s.Mix.String(), s.MakespanSecs, s.StdSecs, s.N, s.VsNative)
	}
	if err := tbl.Write(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "\npaper reference: all-native 250s (fastest); all-knative 1.08x native; all-container slowest\n")
	return err
}
