// Package experiments regenerates every figure of the paper's evaluation
// and every extension study from one table of experiments (registry.go).
// A study declares the cells it sweeps, one seeded run of a cell, and the
// fold of a cell's runs into a row of its table; one writer renders every
// table from the row type's field tags. cmd/repro prints from the table and
// the worker-invariance test iterates it.
package experiments

import (
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/wms"
	"repro/internal/workload"
)

// Options configures an experiment run.
type Options struct {
	// Prm are the model parameters (config.Default for the paper setup).
	Prm config.Params
	// Seed is the base random seed; repetition r uses Seed+r.
	Seed uint64
	// Reps is the number of seeded repetitions averaged per reported
	// number (the paper averages over repeated runs, §V-D).
	Reps int
	// Quick shrinks sweeps for use under `go test` and testing.B; the
	// full-size sweep is used by cmd/repro.
	Quick bool
	// Workers bounds the replication runner's pool: seeded repetitions
	// (and independent sweep points) fan out across this many OS-level
	// workers. 0 means GOMAXPROCS; 1 reproduces the old sequential loops
	// exactly. Results are identical at any worker count — each rep is an
	// isolated sim.Env and aggregation folds rep-indexed results in rep
	// order (see sweep).
	Workers int
	// TraceOut, if set, makes the trace experiment also write each
	// capture's Chrome trace_event JSON to <TraceOut>-<label>.json.
	TraceOut string
}

// DefaultOptions returns the full-size configuration used by cmd/repro.
func DefaultOptions() Options {
	return Options{Prm: config.Default(), Seed: 1, Reps: config.Default().Repetitions}
}

// QuickOptions returns a down-scaled configuration for tests and benches.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Reps = 2
	o.Quick = true
	return o
}

// sweep runs fn once per (cell, rep) on the replication pool and returns
// each cell's results in rep order: out[c][r] = fn(cells[c], o.Seed+r).
// Every pair is an isolated simulation, so the whole grid fans out at once;
// callers fold out[c] left to right, which keeps float accumulation order —
// and hence every reported number — independent of the worker count.
func sweep[C, R any](o Options, cells []C, fn func(c C, seed uint64) R) [][]R {
	flat := parallel.Run(len(cells)*o.Reps, o.Workers, func(i int) R {
		return fn(cells[i/o.Reps], o.Seed+uint64(i%o.Reps))
	})
	out := make([][]R, len(cells))
	for c := range out {
		// Capped, so an append to one cell's reps cannot overwrite the next.
		out[c] = flat[c*o.Reps : (c+1)*o.Reps : (c+1)*o.Reps]
	}
	return out
}

// study is an experiment that sweeps cells: once is one seeded run of a
// cell, and fold turns a cell's runs, in rep order, into its row.
type study[C, R, Row any] struct {
	cells func(o Options) []C
	once  func(o Options, c C, seed uint64) R
	fold  func(o Options, c C, reps []R) Row
	// oneRep runs each cell once, at o.Seed, whatever o.Reps says: the
	// study reports single runs, not averages.
	oneRep bool
	// note is the text printed under the table.
	note string
	// report, if set, finishes the rows into the printed table instead:
	// columns relative to another row, and a note computed from the rows.
	report func(o Options, rows []Row) report
}

// rows runs the study and folds each cell's runs into its row.
func (s study[C, R, Row]) rows(o Options) []Row {
	if s.oneRep {
		o.Reps = 1
	}
	cells := s.cells(o)
	runs := sweep(o, cells, func(c C, seed uint64) R { return s.once(o, c, seed) })
	rows := make([]Row, len(cells))
	for i, c := range cells {
		rows[i] = s.fold(o, c, runs[i])
	}
	return rows
}

func (s study[C, R, Row]) run(o Options) report { return s.tabulate(o, s.rows(o)) }

// tabulate finishes the rows into the printed table.
func (s study[C, R, Row]) tabulate(o Options, rows []Row) report {
	if s.report == nil {
		return report{rows: rows, note: s.note}
	}
	return s.report(o, rows)
}

// first is the fold of a oneRep study: the cell's only run is its row.
func first[C, R any](_ Options, _ C, reps []R) R { return reps[0] }

// runOutcome is what every makespan study records of one seeded workflow
// run.
type runOutcome struct {
	ok       bool    // the workflow completed
	makespan float64 // seconds; valid only when ok
}

func (r runOutcome) outcome() runOutcome { return r }

// outcomeOf is the runOutcome of a workflowRun.
func outcomeOf(res *wms.RunResult, err error) runOutcome {
	if err != nil {
		return runOutcome{}
	}
	return runOutcome{true, res.Makespan().Seconds()}
}

// completion summarises one cell's makespans over its completed reps. A rep
// whose workflow aborted adds nothing to the mean (no zero in the numerator)
// and lowers CompletionRate instead.
type completion struct {
	Makespan    float64 `col:"makespan_s"` // mean over completed reps, seconds
	MakespanStd float64 `col:"std_s"`      // sample stddev over completed reps
	// N is the completed-rep count behind the means; CompletionRate is N
	// over attempted reps.
	N              int     `col:"n"`
	CompletionRate float64 `col:"completion"`
}

// completionOf folds one cell's reps, in rep order, into its completion.
func completionOf[R interface{ outcome() runOutcome }](reps []R) completion {
	var mk metrics.Welford
	for _, r := range reps {
		if run := r.outcome(); run.ok {
			mk.Add(run.makespan)
		}
	}
	c := completion{Makespan: mk.Mean(), MakespanStd: mk.Std(), N: mk.N()}
	if len(reps) > 0 {
		c.CompletionRate = float64(c.N) / float64(len(reps))
	}
	return c
}

// appLayer is the size of a transformation's own image layer.
func appLayer(prm config.Params) int64 {
	return prm.ImageLayersBytes[len(prm.ImageLayersBytes)-1]
}

// runMain runs body as the main process of the simulation env, shuts the
// stack down when body returns, and runs the simulation to the horizon (0:
// until it drains).
func runMain(env *sim.Env, stack interface{ Shutdown() }, horizon time.Duration, body func(p *sim.Proc)) {
	env.Go("main", func(p *sim.Proc) {
		defer stack.Shutdown()
		body(p)
	})
	if horizon > 0 {
		env.RunUntil(horizon)
	} else {
		env.Run()
	}
}

// integrate readies wf's transformations on s. With deploy set, each is
// registered and deployed as a function under policy (the §IX-B
// automation); otherwise each is only registered in the catalog.
func integrate(p *sim.Proc, s *core.Stack, wf *wms.Workflow, deploy bool, policy core.DeployPolicy) error {
	if deploy {
		return s.AutoIntegrate(p, wf, policy)
	}
	for _, id := range wf.TaskIDs() {
		t, _ := wf.Task(id)
		if _, ok := s.Catalogs.Transformation(t.Transformation); !ok {
			s.RegisterTransformation(t.Transformation, appLayer(s.Prm))
		}
	}
	return nil
}

// workflowRun is the run shape most studies share: one workflow, every task
// in one mode, on a fresh stack.
type workflowRun struct {
	wf     *wms.Workflow
	mode   wms.Mode
	policy core.DeployPolicy // the functions' deploy policy, serverless only
	// before, if set, runs in the main process once the transformations
	// are in place, just ahead of the workflow.
	before func(p *sim.Proc)
	// after, if set, sees the result in the main process, before shutdown.
	after   func(res *wms.RunResult) error
	horizon time.Duration // virtual-time bound; 0 runs until the stack drains
}

// on runs r on s: in the main process it integrates the workflow's
// transformations (deployed as functions in serverless mode), runs the
// workflow and shuts the stack down. It returns the result and the error,
// if any, that cut the run short.
func (r workflowRun) on(s *core.Stack) (res *wms.RunResult, err error) {
	runMain(s.Env, s, r.horizon, func(p *sim.Proc) {
		if err = integrate(p, s, r.wf, r.mode == wms.ModeServerless, r.policy); err != nil {
			return
		}
		if r.before != nil {
			r.before(p)
		}
		if res, err = s.Engine.RunWorkflow(p, r.wf, wms.AssignAll(r.mode)); err == nil && r.after != nil {
			err = r.after(res)
		}
	})
	return res, err
}

// sized picks a study's full-size parameter, or its down-scaled one for a
// quick run.
func sized[T any](quick bool, full, small T) T {
	if quick {
		return small
	}
	return full
}

// mosaic is the Montage-like workflow every Montage-based study runs: 8
// tiles full-size, 4 quick.
func mosaic(quick bool) *wms.Workflow {
	return workload.Montage("mosaic", sized(quick, 8, 4), 4<<20)
}
