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
		tr := res.Tasks[id]
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
			if pr := res.Tasks[par]; pr != nil && tr.StartedAt < pr.FinishedAt {
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
				if res.Tasks[id] != tr {
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

// TestInflightSetKeepsIDOrder pins the poll tick's observation order: the
// in-flight set stays sorted by task ID (the order the seed engine got by
// sorting the IDs every tick), not by declaration index, across inserts
// and removals.
func TestInflightSetKeepsIDOrder(t *testing.T) {
	s := newStack(t, nil)
	wf := NewWorkflow("order")
	for _, id := range []string{"t9", "t10", "b", "t8", "a"} {
		if err := wf.AddTask(TaskSpec{ID: id, Transformation: "matmul"}); err != nil {
			t.Fatal(err)
		}
	}
	res := &RunResult{Tasks: make(map[string]*TaskResult)}
	d, err := newDagRun(s.eng, wf, AssignAll(ModeNative), nil, res, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	inflight := func() []string {
		var ids []string
		for _, r := range d.inflight {
			ids = append(ids, wf.tasks[d.plan.byRank[r]].ID)
		}
		return ids
	}
	if err := d.submitReady(0, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := inflight(), []string{"a", "b", "t10", "t8", "t9"}; !slices.Equal(got, want) {
		t.Fatalf("in-flight order after submission = %v, want %v", got, want)
	}
	d.retire(wf.index["t10"])
	d.retire(wf.index["a"])
	if got, want := inflight(), []string{"b", "t8", "t9"}; !slices.Equal(got, want) {
		t.Fatalf("in-flight order after retiring t10 and a = %v, want %v", got, want)
	}
}
