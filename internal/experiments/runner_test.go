package experiments

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/sim"
)

// TestSweep pins the one place seeded reps are derived and folded: rep r of
// every cell runs at seed o.Seed+r, each cell's results come back in rep
// order at any worker count, and a panic in fn — or in a process of the
// simulation fn drives — reaches the caller unchanged.
func TestSweep(t *testing.T) {
	type unit struct {
		cell string
		seed uint64
	}
	cells := []string{"a", "b", "c"}
	for _, workers := range []int{1, 4} {
		o := Options{Seed: 1000, Reps: 5, Workers: workers}
		got := sweep(o, cells, func(c string, seed uint64) unit { return unit{c, seed} })
		if len(got) != len(cells) {
			t.Fatalf("workers=%d: %d cells, want %d", workers, len(got), len(cells))
		}
		for ci, c := range cells {
			if len(got[ci]) != o.Reps {
				t.Fatalf("workers=%d: cell %s has %d reps, want %d", workers, c, len(got[ci]), o.Reps)
			}
			for r, u := range got[ci] {
				if want := (unit{c, o.Seed + uint64(r)}); u != want {
					t.Errorf("workers=%d: out[%d][%d] = %+v, want %+v", workers, ci, r, u, want)
				}
			}
		}

		func() {
			defer func() {
				if r := recover(); r != "cell b exploded" {
					t.Errorf("workers=%d: recovered %v, want the original panic value", workers, r)
				}
			}()
			sweep(o, cells, func(c string, seed uint64) int {
				if c == "b" && seed == o.Seed+2 {
					panic("cell b exploded")
				}
				return 0
			})
		}()

		func() {
			defer func() {
				if r := recover(); r != "proc in cell c exploded" {
					t.Errorf("workers=%d: recovered %v, want the proc's panic value", workers, r)
				}
			}()
			sweep(o, cells, func(c string, seed uint64) time.Duration {
				env := sim.NewEnv(seed)
				env.Go("worker", func(p *sim.Proc) {
					p.Sleep(time.Second)
					if c == "c" && seed == o.Seed+1 {
						panic("proc in cell c exploded")
					}
				})
				return env.Run()
			})
		}()
	}
}

// invarianceCases names each experiment's case in TestWorkerCountInvariance.
// The names are fixed so that test IDs stay comparable across changes; an
// experiment missing here is named after its target.
var invarianceCases = map[string]string{
	"config": "Config", "coldstart": "ColdStart", "fig1": "Fig1", "fig2": "Fig2",
	"fig5": "Fig5", "fig6": "Fig6", "datamove": "DataMovement", "resize": "Resizing",
	"redirect": "Redirection", "clustering": "Clustering", "montage": "Montage",
	"isolation": "Isolation", "placement": "Placement", "chaos": "Chaos",
	"overload": "Overload", "traffic": "Traffic", "execmode": "ExecMode", "scale": "Scale",
}

// TestWorkerCountInvariance is the parallel runner's acceptance gate: every
// experiment in the table must produce identical results at Workers=1 (the
// old sequential loops) and Workers=8. reflect.DeepEqual over float64 fields
// is exact equality, so any scheduling-dependent accumulation order would
// fail here.
func TestWorkerCountInvariance(t *testing.T) {
	type invCase struct {
		name string
		run  func(o Options) any
	}
	cases := []invCase{{"RunMix", func(o Options) any {
		return RunMix(o, Mix{Native: 0.5, Serverless: 0.5})
	}}}
	for _, e := range experimentTable {
		if e.Name == "trace" {
			continue // captures hold pointers: TestWorkerCountInvarianceTrace
		}
		name, ok := invarianceCases[e.Name]
		if !ok {
			name = e.Name
		}
		cases = append(cases, invCase{name, func(o Options) any { return e.run(o) }})
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			seq := QuickOptions()
			seq.Workers = 1
			par := QuickOptions()
			par.Workers = 8
			a, b := c.run(seq), c.run(par)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("workers=1 and workers=8 differ:\n  seq: %+v\n  par: %+v", a, b)
			}
		})
	}
}

// TestWorkerCountInvarianceTrace covers the trace experiment separately:
// traceCapture holds pointers (tracer, analysis), so equality is asserted on
// the exported Chrome trace bytes and the critical-path reconciliation.
func TestWorkerCountInvarianceTrace(t *testing.T) {
	seq := QuickOptions()
	seq.Workers = 1
	par := QuickOptions()
	par.Workers = 8
	a, b := traceStudy.rows(seq), traceStudy.rows(par)
	if len(a) != len(b) {
		t.Fatalf("row count differs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		ra, rb := a[i], b[i]
		if ra.mode != rb.mode {
			t.Fatalf("row %d mode order differs: %v vs %v", i, ra.mode, rb.mode)
		}
		if !bytes.Equal(ra.tracer.ChromeBytes(), rb.tracer.ChromeBytes()) {
			t.Errorf("mode %v: chrome trace differs between worker counts", ra.mode)
		}
		if ra.path.Makespan != rb.path.Makespan || ra.path.StageSum() != rb.path.StageSum() {
			t.Errorf("mode %v: critical path differs between worker counts", ra.mode)
		}
	}
}

// TestWorkersZeroDefaults asserts Options.Workers=0 (the default) runs the
// pool at GOMAXPROCS and still matches the sequential result.
func TestWorkersZeroDefaults(t *testing.T) {
	def := QuickOptions() // Workers zero value
	seq := QuickOptions()
	seq.Workers = 1
	if a, b := coldStart.run(def), coldStart.run(seq); !reflect.DeepEqual(a, b) {
		t.Errorf("default workers differ from sequential:\n  def: %+v\n  seq: %+v", a, b)
	}
}

// TestConcurrentEnvsIndependent is the -race regression for the cross-Env
// sharing audit: two full stacks (faults, tracing hooks, retries — the
// chaos path touches every substrate) run concurrently on separate
// goroutines, and each must produce exactly the run it produces alone. Any
// accidental shared mutable state between Envs shows up either as a race
// report under -race or as a result divergence here.
func TestConcurrentEnvsIndependent(t *testing.T) {
	prm := config.Default()
	prm.TaskRetry.MaxAttempts = 2
	want1 := chaosOnce(1, prm, 0.3, true, true)
	want2 := chaosOnce(2, prm, 0.3, true, true)

	type out struct{ run chaosRun }
	ch1 := make(chan out)
	ch2 := make(chan out)
	go func() { ch1 <- out{chaosOnce(1, prm, 0.3, true, true)} }()
	go func() { ch2 <- out{chaosOnce(2, prm, 0.3, true, true)} }()
	got1, got2 := <-ch1, <-ch2

	if !reflect.DeepEqual(got1.run, want1) {
		t.Errorf("concurrent run (seed 1) differs from isolated run:\n  got:  %+v\n  want: %+v", got1.run, want1)
	}
	if !reflect.DeepEqual(got2.run, want2) {
		t.Errorf("concurrent run (seed 2) differs from isolated run:\n  got:  %+v\n  want: %+v", got2.run, want2)
	}
}
