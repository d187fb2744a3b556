package wms

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/sim"
)

// randomDAG builds a seeded random DAG of 12–19 tasks: each task depends on
// up to three earlier tasks (occasionally twice on the same one) and reads
// its parents' outputs.
func randomDAG(t *testing.T, seed uint64) *Workflow {
	t.Helper()
	rng := sim.NewRNG(seed)
	wf := NewWorkflow(fmt.Sprintf("rand%d", seed))
	n := 12 + rng.Intn(8)
	for i := 0; i < n; i++ {
		spec := TaskSpec{
			ID:             fmt.Sprintf("t%02d", i),
			Transformation: "matmul",
			Outputs:        []FileSpec{{LFN: fmt.Sprintf("o%02d", i), Bytes: 1000}},
		}
		var parents []int
		for k := 0; i > 0 && k < 3; k++ {
			if rng.Float64() < 0.6 {
				parents = append(parents, rng.Intn(i))
			}
		}
		for _, par := range parents {
			spec.Inputs = append(spec.Inputs, FileSpec{LFN: fmt.Sprintf("o%02d", par), Bytes: 1000})
		}
		if err := wf.AddTask(spec); err != nil {
			t.Fatal(err)
		}
		for _, par := range parents {
			if err := wf.AddDependency(fmt.Sprintf("t%02d", par), spec.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	return wf
}

// checkSettlement asserts the DAG-settlement invariants of a finished run:
// every task has exactly one result, recorded under its own ID with at
// least one attempt, and no task started before all its parents finished.
// (A run that returns without error has also passed the engine's own check
// that nothing is left in flight.)
func checkSettlement(t *testing.T, label string, wf *Workflow, res *RunResult) {
	t.Helper()
	if len(res.Tasks) != wf.Len() {
		t.Errorf("%s: %d results for %d tasks", label, len(res.Tasks), wf.Len())
	}
	for _, id := range wf.TaskIDs() {
		tr := res.Task(wf, id)
		if tr == nil {
			t.Errorf("%s: task %s has no result", label, id)
			continue
		}
		if tr.ID != id {
			t.Errorf("%s: result for %s is recorded as %s", label, id, tr.ID)
		}
		if tr.Attempts < 1 {
			t.Errorf("%s: task %s settled after %d attempts", label, id, tr.Attempts)
		}
		for _, par := range wf.Parents(id) {
			if pr := res.Task(wf, par); pr != nil && tr.StartedAt < pr.FinishedAt {
				t.Errorf("%s: task %s started at %v, before parent %s finished at %v",
					label, id, tr.StartedAt, par, pr.FinishedAt)
			}
		}
	}
}

// TestDAGSettlementInvariants drives random DAGs through every release
// path under injected job failures:
// each run first aborts in an all-jobs-fail window, then resumes from its
// rescue with a fresh retry budget while background failures continue. Both
// the rescue and the resumed run must settle every task exactly once.
func TestDAGSettlementInvariants(t *testing.T) {
	const burstAt, burstFor = 20 * time.Second, 30 * time.Second
	retried := 0
	for _, m := range config.ExecModes() {
		mode := m.String()
		for seed := uint64(1); seed <= 2; seed++ {
			label := fmt.Sprintf("%s/seed=%d", mode, seed)
			s := newModeStack(t, mode, nil)
			s.eng.Retry = config.RetryPolicy{MaxAttempts: 3, BaseDelay: 500 * time.Millisecond, Multiplier: 2}
			in := attachFaults(s)
			for _, w := range s.cl.Workers {
				in.Schedule(faults.Fault{Kind: faults.KindJobFailure, Rate: 0.15, Target: w.Name})
			}
			in.Schedule(faults.Fault{Kind: faults.KindJobFailure, At: burstAt, Duration: burstFor, Rate: 1})
			wf := randomDAG(t, seed)

			var res *RunResult
			var rescue *rescueState
			s.env.Go("main", func(p *sim.Proc) {
				defer s.shutdown()
				_, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeNative))
				var abort *abortError
				if !errors.As(err, &abort) {
					t.Errorf("%s: first run returned %v, want an abort in the failure window", label, err)
					return
				}
				rescue = abort.Rescue
				if now := p.Now(); now < burstAt+burstFor {
					p.Sleep(burstAt + burstFor - now)
				}
				s.eng.Retry.MaxAttempts = 8
				res, err = s.eng.resumeWorkflow(p, wf, AssignAll(ModeNative), rescue)
				if err != nil {
					t.Errorf("%s: resume: %v", label, err)
				}
			})
			s.env.Run()
			if res == nil {
				continue
			}
			if len(rescue.Done) == 0 || len(rescue.Done) == wf.Len() {
				t.Errorf("%s: rescue holds %d of %d tasks; the abort should fall mid-run", label, len(rescue.Done), wf.Len())
			}
			for id, tr := range rescue.Done {
				for _, par := range wf.Parents(id) {
					if rescue.Done[par] == nil {
						t.Errorf("%s: rescue holds %s but not its parent %s", label, id, par)
					}
				}
				if res.Task(wf, id) != tr {
					t.Errorf("%s: resumed run replaced the rescued result of %s", label, id)
				}
			}
			checkSettlement(t, label, wf, res)
			for _, tr := range res.Tasks {
				if tr.Attempts > 1 {
					retried++
				}
			}
		}
	}
	if retried == 0 {
		t.Error("no task needed a retry; the background failure rate never fired")
	}
}

// pollRun prepares a poll run of wf on s, its outcome going to done, and
// counts its ticks: each tick's time is appended to ticks before it runs.
func pollRun(t *testing.T, s *stack, wf *Workflow, done func(*RunResult, error)) (*dagRun, *[]time.Duration) {
	t.Helper()
	d, err := s.eng.prepare(wf, AssignAll(ModeNative), nil)
	if err != nil {
		t.Fatal(err)
	}
	ticks := new([]time.Duration)
	tick := d.tick
	d.tick = func() {
		*ticks = append(*ticks, s.env.Now())
		tick()
	}
	d.done = done
	return d, ticks
}

// TestDueSetSettlesInIDOrder pins the poll tick's observation order: the
// tick settles the tasks marked due in task-ID order (the order the seed
// engine got by sorting the IDs every tick), not by declaration index or
// by the order the settlements marked them. Five independent tasks finish
// in declaration order inside one long poll interval; a retired flight
// joins the run's free list as the tick settles its task, so the list
// records the settle order.
func TestDueSetSettlesInIDOrder(t *testing.T) {
	s := newModeStack(t, "poll", func(p *config.Params) { p.DAGManPoll = time.Hour })
	wf := NewWorkflow("order")
	ids := []string{"t9", "t10", "b", "t8", "a"}
	for k, id := range ids {
		if err := wf.AddTask(TaskSpec{ID: id, Transformation: "matmul", WorkScale: float64(1 + 4*k)}); err != nil {
			t.Fatal(err)
		}
	}
	var res *RunResult
	d, ticks := pollRun(t, s, wf, func(r *RunResult, err error) {
		if err != nil {
			t.Error(err)
		}
		res = r
		s.shutdown()
	})
	s.env.Go("main", func(*sim.Proc) { d.begin() })
	s.env.Run()
	if res == nil {
		t.Fatal("no result")
	}
	for k := 1; k < len(ids); k++ {
		if prev, cur := res.Task(wf, ids[k-1]), res.Task(wf, ids[k]); cur.FinishedAt <= prev.FinishedAt {
			t.Fatalf("%s finished at %v, not after %s at %v: the marks did not arrive in declaration order",
				ids[k], cur.FinishedAt, ids[k-1], prev.FinishedAt)
		}
	}
	if len(*ticks) != 2 {
		t.Fatalf("%d ticks, want the phase tick and one that settles all five", len(*ticks))
	}
	var settled []string
	for _, f := range d.flights {
		settled = append(settled, wf.tasks[f.i].ID)
	}
	if want := []string{"a", "b", "t10", "t8", "t9"}; !slices.Equal(settled, want) {
		t.Fatalf("settle order = %v, want %v", settled, want)
	}
}

// TestPollTickParksWhenIdle: under poll, a chain whose tasks each run for
// several poll intervals fires no tick while nothing is due. It fires the
// phase tick and at most one tick per settled copy, each at the phase plus
// a whole number of DAGManPoll intervals.
func TestPollTickParksWhenIdle(t *testing.T) {
	s := newModeStack(t, "poll", nil)
	const n = 4
	wf := NewWorkflow("slow")
	for k := 0; k < n; k++ {
		id := fmt.Sprintf("s%d", k)
		if err := wf.AddTask(TaskSpec{ID: id, Transformation: "matmul", WorkScale: 40}); err != nil {
			t.Fatal(err)
		}
		if k > 0 {
			if err := wf.AddDependency(fmt.Sprintf("s%d", k-1), id); err != nil {
				t.Fatal(err)
			}
		}
	}
	var res *RunResult
	d, ticks := pollRun(t, s, wf, func(r *RunResult, err error) {
		if err != nil {
			t.Error(err)
		}
		res = r
		s.shutdown()
	})
	s.env.Go("main", func(*sim.Proc) { d.begin() })
	s.env.Run()
	if res == nil {
		t.Fatal("no result")
	}
	poll := s.prm.DAGManPoll
	for _, tr := range res.Tasks {
		if exec := tr.FinishedAt - tr.StartedAt; exec < 3*poll {
			t.Fatalf("task %s ran %v, want several %v poll intervals", tr.ID, exec, poll)
		}
	}
	if len(*ticks) > n+1 {
		t.Errorf("%d ticks for %d settlements: an idle interval fired a tick", len(*ticks), n)
	}
	if (*ticks)[0] != d.phase {
		t.Errorf("first tick at %v, want the phase %v", (*ticks)[0], d.phase)
	}
	for _, at := range *ticks {
		if (at-d.phase)%poll != 0 {
			t.Errorf("tick at %v is off the grid %v + k*%v", at, d.phase, poll)
		}
	}
	if got := (*ticks)[len(*ticks)-1]; got != res.FinishedAt {
		t.Errorf("last tick at %v, run finished at %v", got, res.FinishedAt)
	}
}
