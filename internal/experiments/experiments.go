// Package experiments regenerates every figure of the paper's evaluation:
// one driver per figure returns the numeric series the paper plots, plus the
// derived quantities it reports (regression slopes, speedups, the cold-start
// number). The experiment table (registry.go) lists every driver; cmd/repro
// prints from it and the worker-invariance test iterates it.
package experiments

import (
	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/parallel"
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

// runOutcome is what every makespan study records of one seeded workflow
// run.
type runOutcome struct {
	ok       bool    // the workflow completed
	makespan float64 // seconds; valid only when ok
}

func (r runOutcome) outcome() runOutcome { return r }

// Completion summarises one cell's makespans over its completed reps. A rep
// whose workflow aborted adds nothing to the mean (no zero in the numerator)
// and lowers CompletionRate instead.
type Completion struct {
	Makespan    float64 // mean over completed reps, seconds
	MakespanStd float64 // sample stddev over completed reps
	// N is the completed-rep count behind the means; CompletionRate is N
	// over attempted reps.
	N              int
	CompletionRate float64
}

// completion folds one cell's reps, in rep order, into its Completion.
func completion[R interface{ outcome() runOutcome }](reps []R) Completion {
	var mk metrics.Welford
	for _, r := range reps {
		if run := r.outcome(); run.ok {
			mk.Add(run.makespan)
		}
	}
	c := Completion{Makespan: mk.Mean(), MakespanStd: mk.Std(), N: mk.N()}
	if len(reps) > 0 {
		c.CompletionRate = float64(c.N) / float64(len(reps))
	}
	return c
}
