package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/wms"
	"repro/internal/workload"
)

// Mix is a point on the (native, container, serverless) simplex of Fig. 5.
type Mix struct {
	Native     float64 `col:"native"`
	Container  float64 `col:"container"`
	Serverless float64 `col:"serverless"`
}

func (m Mix) String() string {
	return fmt.Sprintf("%.2f/%.2f/%.2f", m.Native, m.Container, m.Serverless)
}

// MixResult is the paper's metric for one mix: the average (over seeds) of
// the slowest makespan among the concurrent workflows (§V-D), with the
// sample stddev and repetition count alongside. It is a row of Fig. 5.
type MixResult struct {
	Mix          Mix
	MakespanSecs float64 `col:"slowest_makespan_s"`
	StdSecs      float64 `col:"std_s"`
	N            int     `col:"n"`
}

// mixCell is one mix of a sweep over the §V-C workload.
type mixCell struct {
	label string // the Fig. 6 bar
	mix   Mix
	wfs   []*wms.Workflow // the §V-C chains, shared read-only by every run
}

// withChains gives every cell the §V-C workload — WorkflowsPerRun
// concurrent chains of TasksPerWorkflow sequential matmuls. The chains are
// built once and shared read-only by every run: a run never mutates a
// Workflow.
func withChains(o Options, cells []mixCell) []mixCell {
	wfs := workload.ConcurrentChains(sized(o.Quick, o.Prm.WorkflowsPerRun, 4),
		sized(o.Quick, o.Prm.TasksPerWorkflow, 4), o.Prm.MatrixBytes)
	out := make([]mixCell, len(cells))
	for i, c := range cells {
		c.wfs = wfs
		out[i] = c
	}
	return out
}

// runMixOnce executes one seeded run of the §V-C workload, tasks distributed
// randomly across environments by the mix weights, and returns the slowest
// concurrent workflow's makespan in seconds.
func runMixOnce(o Options, c mixCell, seed uint64) float64 {
	s := core.NewStack(seed, o.Prm)
	var slowest time.Duration
	runMain(s.Env, s, 0, func(p *sim.Proc) {
		for _, wf := range c.wfs {
			if err := integrate(p, s, wf, c.mix.Serverless > 0, core.ReusePolicy()); err != nil {
				panic(err)
			}
		}
		assign := wms.AssignFractions(s.Env.Rand().Fork(), c.mix.Native, c.mix.Container, c.mix.Serverless)
		res, err := s.RunConcurrentWorkflows(p, c.wfs, assign)
		if err != nil {
			panic(err)
		}
		slowest = res.SlowestMakespan()
	})
	return slowest.Seconds()
}

func foldMix(_ Options, c mixCell, reps []float64) MixResult {
	var w metrics.Welford
	for _, secs := range reps {
		w.Add(secs)
	}
	return MixResult{Mix: c.mix, MakespanSecs: w.Mean(), StdSecs: w.Std(), N: w.N()}
}

// fig5 sweeps the mix simplex on a grid (step 0.25 full-size, 0.5 quick)
// — the data behind the ternary plot. The whole (mix, rep) grid fans out
// across the pool at once, so the sweep scales with cores rather than being
// limited to the per-mix repetition count.
var fig5 = study[mixCell, float64, MixResult]{
	cells: func(o Options) []mixCell {
		step := sized(o.Quick, 0.25, 0.5)
		var cells []mixCell
		n := int(1.0/step + 0.5)
		for i := 0; i <= n; i++ {
			for j := 0; i+j <= n; j++ {
				cells = append(cells, mixCell{mix: Mix{
					Native:     float64(i) * step,
					Container:  float64(j) * step,
					Serverless: float64(n-i-j) * step,
				}})
			}
		}
		return withChains(o, cells)
	},
	once: runMixOnce,
	fold: foldMix,
}

// RunMix executes the §V-C workload under one mix and returns the average
// slowest makespan over o.Reps seeds.
func RunMix(o Options, mix Mix) MixResult {
	s := fig5
	s.cells = func(o Options) []mixCell { return withChains(o, []mixCell{{mix: mix}}) }
	return s.rows(o)[0]
}

// fig6Bars are the five highlighted combinations of Fig. 6, in the paper's
// bar order.
var fig6Bars = []mixCell{
	{label: "all-native", mix: Mix{Native: 1}},
	{label: "half-knative-half-native", mix: Mix{Native: 0.5, Serverless: 0.5}},
	{label: "all-knative", mix: Mix{Serverless: 1}},
	{label: "half-container-half-native", mix: Mix{Native: 0.5, Container: 0.5}},
	{label: "all-container", mix: Mix{Container: 1}},
}

// fig6Row is one bar of Fig. 6.
type fig6Row struct {
	Label        string  `col:"scenario"`
	Mix          Mix     `col:"mix(n/c/s)"`
	MakespanSecs float64 `col:"slowest_makespan_s"`
	StdSecs      float64 `col:"std_s"`
	N            int     `col:"n"`
	// VsNative is the makespan relative to the all-native bar.
	VsNative float64 `col:"vs_native"`
}

// fig6 evaluates the five highlighted mixes, all fanned out at once.
var fig6 = study[mixCell, float64, fig6Row]{
	cells: func(o Options) []mixCell { return withChains(o, fig6Bars) },
	once:  runMixOnce,
	fold: func(o Options, c mixCell, reps []float64) fig6Row {
		r := foldMix(o, c, reps)
		return fig6Row{Label: c.label, Mix: c.mix, MakespanSecs: r.MakespanSecs, StdSecs: r.StdSecs, N: r.N}
	},
	report: func(_ Options, rows []fig6Row) report {
		if base := rows[0].MakespanSecs; base > 0 {
			for i := range rows {
				rows[i].VsNative = rows[i].MakespanSecs / base
			}
		}
		return report{rows: rows, note: "\npaper reference: all-native 250s (fastest); all-knative 1.08x native; all-container slowest\n"}
	},
}
