package wms

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/trace"
)

// hedgeCounts counts the speculative copies that the runs of workflow
// launched under tr, and the attempts that a copy won: the workflow's
// "hedge" spans, and its task spans labelled hedge-win.
func hedgeCounts(tr *trace.Tracer, workflow string) (hedges, wins int) {
	for _, sp := range tr.Spans() {
		if wf, _ := sp.Label("workflow"); sp.Substrate() != "wms" || wf != workflow {
			continue
		}
		switch sp.Name() {
		case "hedge":
			hedges++
		case "task":
			if _, won := sp.Label("hedge-win"); won {
				wins++
			}
		}
	}
	return hedges, wins
}

// A speculative copy of a straggling task must win when the primary's node
// is crawling: the engine launches a hedge after HedgeAfter, the copy lands
// on a different (idle) node, finishes first, and the primary is abandoned
// without counting as a retry.
func TestHedgeWinsOverStragglingNode(t *testing.T) {
	s := newStack(t, nil)
	s.eng.HedgeAfter = 6 * time.Second
	tr := trace.New(s.env)
	wf := NewWorkflow("straggler")
	if err := wf.AddTask(TaskSpec{ID: "t0", Transformation: "matmul", WorkScale: 10}); err != nil {
		t.Fatal(err)
	}
	s.env.Go("main", func(p *sim.Proc) {
		// Once the primary starts executing somewhere, swamp that node's
		// CPU with background work so the task crawls.
		s.env.Go("hogger", func(hp *sim.Proc) {
			var victim *cluster.Node
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
		res, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeNative))
		if err != nil {
			t.Fatal(err)
		}
		hedges, wins := hedgeCounts(tr, wf.Name)
		if hedges != 1 {
			t.Errorf("hedges = %d, want 1", hedges)
		}
		if wins != 1 {
			t.Errorf("hedge wins = %d, want the speculative copy to win", wins)
		}
		if got := res.Task(wf, "t0").Attempts; got != 1 {
			t.Errorf("Attempts = %d, want 1 (hedges are not retries)", got)
		}
		s.shutdown()
	})
	// The hog processes outlive the workflow, so bound the run instead of
	// draining.
	s.env.RunUntil(10 * time.Minute)
}

// When nothing straggles the hedge machinery stays inert: no copies, no
// wins, identical task accounting.
func TestNoHedgesWithoutStragglers(t *testing.T) {
	s := newStack(t, nil)
	s.eng.HedgeAfter = time.Hour
	tr := trace.New(s.env)
	wf := chain(t, 3)
	s.env.Go("main", func(p *sim.Proc) {
		res, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeNative))
		if err != nil {
			t.Fatal(err)
		}
		if hedges, wins := hedgeCounts(tr, wf.Name); hedges != 0 || wins != 0 || len(res.Tasks) != wf.Len() {
			t.Errorf("hedges=%d wins=%d tasks=%d on a healthy run, want 0/0/%d", hedges, wins, len(res.Tasks), wf.Len())
		}
		s.shutdown()
	})
	s.env.Run()
}

// An exhausted retry budget aborts the workflow with a rescue DAG instead of
// hammering a failing service with the full per-task retry allowance.
func TestRetryBudgetExhaustionAborts(t *testing.T) {
	s := newStack(t, nil)
	s.eng.Retry = config.RetryPolicy{MaxAttempts: 10, BaseDelay: 100 * time.Millisecond}
	s.eng.Budget = resilience.NewRetryBudget(0.1, 1)
	wf := chain(t, 1)
	s.env.Go("main", func(p *sim.Proc) {
		s.deployFunction(p, t)
		s.kn.Shutdown() // every invocation will now fail
		_, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeServerless))
		var abort *abortError
		if !errors.As(err, &abort) {
			t.Fatalf("err = %v, want *abortError", err)
		}
		if abort.Reason != abortRetryBudget {
			t.Errorf("abort reason = %q, want %q", abort.Reason, abortRetryBudget)
		}
		if abort.Rescue == nil {
			t.Error("budget abort carries no rescue DAG")
		}
		s.k.Shutdown()
		s.pool.Shutdown()
	})
	s.env.Run()
}
