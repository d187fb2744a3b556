package wms

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/knative"
	"repro/internal/sim"
	"repro/internal/trace"
)

// chainRunAllocs returns the allocations of one native run of an n-task
// chain under the given execution mode on a warm stack: the same workflow,
// run once per period by a driver that outlives the measurement.
func chainRunAllocs(t *testing.T, mode string, n int) float64 {
	t.Helper()
	s := newModeStack(t, mode, nil)
	wf := chain(t, n)
	const period = time.Hour // one run, settled, per period
	s.env.Go("driver", func(p *sim.Proc) {
		for next := period; ; next += period {
			p.Sleep(next - p.Now())
			if _, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeNative)); err != nil {
				t.Error(err)
			}
		}
	})
	// RunFor stops with the driver's next wake pending, so the kernel keeps
	// its idle coroutines between runs.
	run := func() { s.env.RunFor(period) }
	for i := 0; i < 3; i++ {
		run() // warm the free lists, rings and pools
	}
	return testing.AllocsPerRun(5, run)
}

// TestChainAllocsPerTask: a task attempt of a native chain allocates
// next to nothing, under every release path. The condor job and the flight
// are recycled structs, the payload is a pointer into the run's task
// state, the result lives in the run's result slab, the task's name is
// never built untraced, and the settle continuation, the broker's
// publication and its delivery are bound once. (Every path measures 0.00
// per task.)
func TestChainAllocsPerTask(t *testing.T) {
	for _, c := range []struct {
		mode  string
		bound float64
	}{{"poll", 1.5}, {"decentralized", 1.5}, {"trigger", 2.5}} {
		t.Run(c.mode, func(t *testing.T) {
			short, long := chainRunAllocs(t, c.mode, 4), chainRunAllocs(t, c.mode, 24)
			perTask := (long - short) / 20
			t.Logf("%.0f allocations per 4-task run, %.0f per 24-task run: %.2f per task", short, long, perTask)
			if perTask > c.bound {
				t.Errorf("a chain task allocates %.2f times, want at most %.1f", perTask, c.bound)
			}
		})
	}
}

// TestReleasedLoserPublishesFromItsNode: under trigger release a hedged
// task's losing copy is released at the win while its settle continuation
// still waits. When the loser settles, the continuation publishes the
// settled event from the node the loser ran on, not from whatever job next
// takes the released struct.
func TestReleasedLoserPublishesFromItsNode(t *testing.T) {
	s := newModeStack(t, "trigger", nil)
	s.eng.HedgeAfter = 6 * time.Second
	tr := trace.New(s.env)
	wf := NewWorkflow("straggler")
	for _, spec := range []TaskSpec{
		{ID: "t0", Transformation: "matmul", WorkScale: 10},
		{ID: "t1", Transformation: "matmul", WorkScale: 200}, // outlives the loser
	} {
		if err := wf.AddTask(spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := wf.AddDependency("t0", "t1"); err != nil {
		t.Fatal(err)
	}
	var victim *cluster.Node
	var sources []string
	s.eng.Broker.Subscribe(taskSettledEventType, "straggler/t0",
		func(ev knative.Event) { sources = append(sources, ev.Source) })
	var res *RunResult
	s.env.Go("main", func(p *sim.Proc) {
		// Once the primary starts executing somewhere, swamp that node's
		// CPU so the hedge copy wins elsewhere and the primary loses.
		s.env.Go("hogger", func(hp *sim.Proc) {
			for victim == nil {
				hp.Sleep(100 * time.Millisecond)
				for _, n := range s.cl.Workers {
					if n.CPU.Load() > 0 {
						victim = n
						break
					}
				}
			}
			for i := 0; i < 32; i++ {
				node := victim
				s.env.Go("hog", func(gp *sim.Proc) { node.Exec(gp, 200, 1) })
			}
		})
		var err error
		if res, err = s.eng.RunWorkflow(p, wf, AssignAll(ModeNative)); err != nil {
			t.Error(err)
		}
		s.shutdown()
	})
	s.env.RunUntil(time.Hour)
	if _, wins := hedgeCounts(tr, wf.Name); res == nil || wins != 1 {
		t.Fatalf("run %+v with %d hedge wins, want the hedge copy of t0 to win", res, wins)
	}
	want := []string{res.Task(wf, "t0").Node, victim.Name}
	if strings.Join(sources, ",") != strings.Join(want, ",") {
		t.Errorf("t0's settled events came from %v, want the winner's node then the loser's %v", sources, want)
	}
}

// TestValidatedWorkflowRevalidatesAfterChange: a run caches the workflow's
// validation, a change drops it, and so a cycle added after a successful
// run makes the next run fail.
func TestValidatedWorkflowRevalidatesAfterChange(t *testing.T) {
	s := newStack(t, nil)
	wf := chain(t, 3)
	var rejected bool
	s.env.Go("main", func(p *sim.Proc) {
		if _, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeNative)); err != nil {
			t.Fatal(err)
		}
		if wf.valid.Load() == nil {
			t.Error("a successful run left no cached verdict")
		}
		if err := wf.AddDependency(taskID(2), taskID(0)); err != nil {
			t.Fatal(err)
		}
		if wf.valid.Load() != nil {
			t.Error("AddDependency kept the cached verdict")
		}
		_, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeNative))
		if rejected = err != nil; err == nil || !strings.Contains(err.Error(), "cycle") {
			t.Errorf("run after adding a cycle: err = %v, want the cycle", err)
		}
		s.shutdown()
	})
	// A cyclic run that got past validation would never settle, so bound
	// the clock instead of draining.
	s.env.RunUntil(time.Hour)
	if !rejected {
		t.Error("the cyclic workflow's run did not return an error")
	}
}

// TestSharedWorkflowAcrossEnvs: two simulations on two goroutines run one
// Workflow, as the Fig. 5 sweep's workers do; both validate it. Under
// -race this checks that the cached verdict is the only shared write.
func TestSharedWorkflowAcrossEnvs(t *testing.T) {
	wf := chain(t, 4)
	var wg sync.WaitGroup
	makespans := make([]time.Duration, 2)
	for w := range makespans {
		s := newStack(t, nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.env.Go("main", func(p *sim.Proc) {
				res, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeNative))
				if err != nil {
					t.Error(err)
				} else {
					makespans[w] = res.Makespan()
				}
				s.shutdown()
			})
			s.env.Run()
		}()
	}
	wg.Wait()
	if wf.valid.Load() == nil {
		t.Error("the shared workflow holds no cached verdict")
	}
	if makespans[0] == 0 || makespans[0] != makespans[1] {
		t.Errorf("same-seed runs of a shared workflow took %v, want equal and non-zero", makespans)
	}
}
