package wms

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/trace"
)

// newModeStack builds the standard test stack pinned to one execution mode,
// with task-duration jitter zeroed so cross-mode runs of the same DAG are
// comparable. Trigger mode gets its completion broker, as core.NewStack
// wires it.
func newModeStack(t *testing.T, mode string, mut func(*config.Params)) *stack {
	t.Helper()
	s := newStack(t, func(p *config.Params) {
		p.ExecMode = mode
		p.TaskJitterFrac = 0
		if mut != nil {
			mut(p)
		}
	})
	if mode == "trigger" {
		s.eng.Broker = s.kn.NewBroker("wms-completions")
	}
	return s
}

// fanDAG builds the wide fan-out/fan-in shape: in → width chains of depth →
// out (structural dependencies only; release latency is what these tests
// measure, not data staging).
func fanDAG(t *testing.T, width, depth int) *Workflow {
	t.Helper()
	wf := NewWorkflow("fan")
	add := func(spec TaskSpec) {
		t.Helper()
		if err := wf.AddTask(spec); err != nil {
			t.Fatal(err)
		}
	}
	add(TaskSpec{ID: "in", Transformation: "matmul"})
	for j := 0; j < width; j++ {
		for i := 0; i < depth; i++ {
			id := fmt.Sprintf("b%d.s%d", j, i)
			add(TaskSpec{ID: id, Transformation: "matmul"})
			parent := "in"
			if i > 0 {
				parent = fmt.Sprintf("b%d.s%d", j, i-1)
			}
			if err := wf.AddDependency(parent, id); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(TaskSpec{ID: "out", Transformation: "matmul"})
	for j := 0; j < width; j++ {
		if err := wf.AddDependency(fmt.Sprintf("b%d.s%d", j, depth-1), "out"); err != nil {
			t.Fatal(err)
		}
	}
	return wf
}

// TestExecModesAgreeOnCompletions is the differential test across release
// paths: the same DAG under poll, decentralized, and trigger modes must
// complete the identical task set with identical attempt counts, respecting
// dependencies, and the event-driven modes must never be slower than the
// poll loop (per the seed's timing model, they skip the initial poll-phase
// jitter and the per-step observation lag).
func TestExecModesAgreeOnCompletions(t *testing.T) {
	type outcome struct {
		mode     string
		res      *RunResult
		makespan time.Duration
	}
	var outcomes []outcome
	for _, m := range config.ExecModes() {
		mode := m.String()
		s := newModeStack(t, mode, nil)
		wf := fanDAG(t, 4, 3)
		var res *RunResult
		s.env.Go("main", func(p *sim.Proc) {
			defer s.shutdown()
			r, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeNative))
			if err != nil {
				t.Errorf("mode %s: %v", mode, err)
				return
			}
			res = r
		})
		s.env.Run()
		if res == nil {
			t.Fatalf("mode %s: no result", mode)
		}
		if len(res.Tasks) != wf.Len() {
			t.Fatalf("mode %s: %d tasks recorded, want %d", mode, len(res.Tasks), wf.Len())
		}
		for _, tr := range res.Tasks {
			id := tr.ID
			if tr.Attempts != 1 {
				t.Errorf("mode %s: task %s took %d attempts", mode, id, tr.Attempts)
			}
			for _, par := range wf.Parents(id) {
				if tr.StartedAt < res.Task(wf, par).FinishedAt {
					t.Errorf("mode %s: task %s started before parent %s finished", mode, id, par)
				}
			}
		}
		outcomes = append(outcomes, outcome{mode: mode, res: res, makespan: res.Makespan()})
	}

	// Identical completion sets across all three modes.
	ids := func(res *RunResult) []string {
		var out []string
		for _, tr := range res.Tasks {
			out = append(out, tr.ID)
		}
		sort.Strings(out)
		return out
	}
	base := ids(outcomes[0].res)
	for _, oc := range outcomes[1:] {
		got := ids(oc.res)
		if len(got) != len(base) {
			t.Fatalf("completion sets differ: %s has %d tasks, %s has %d",
				outcomes[0].mode, len(base), oc.mode, len(got))
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("completion sets differ at %s vs %s", base[i], got[i])
			}
		}
	}

	// Makespan ordering: the event-driven modes release successors at
	// completion time, so they can only be as fast or faster than the
	// poll loop's tick-quantized releases.
	poll := outcomes[0]
	if poll.mode != "poll" {
		t.Fatalf("expected poll first, got %s", poll.mode)
	}
	for _, oc := range outcomes[1:] {
		if oc.makespan > poll.makespan {
			t.Errorf("mode %s makespan %v exceeds poll %v", oc.mode, oc.makespan, poll.makespan)
		}
	}
}

// TestEventModeRetriesAndRescue drives the full failure story through the
// event-driven release path: a targeted fault exhausts task b's retries, the
// run aborts with a rescue recording finished work, and resuming after the
// incident completes the DAG without re-running task a.
func TestEventModeRetriesAndRescue(t *testing.T) {
	for _, mode := range []string{"decentralized", "trigger"} {
		t.Run(mode, func(t *testing.T) {
			s := newModeStack(t, mode, nil)
			in := attachFaults(s)
			s.eng.Retry = config.RetryPolicy{MaxAttempts: 2}
			in.Schedule(faults.Fault{Kind: faults.KindJobFailure, At: 0, Duration: 40 * time.Second, Rate: 1, Target: "worker2"})
			wf := pinnedChain(t)
			s.env.Go("main", func(p *sim.Proc) {
				defer s.shutdown()
				_, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeNative))
				var abort *abortError
				if !errors.As(err, &abort) {
					t.Errorf("err = %v, want abortError", err)
					return
				}
				if abort.Task != "b" {
					t.Errorf("aborted task = %s, want b", abort.Task)
				}
				if _, ok := abort.Rescue.Done["a"]; !ok {
					t.Error("finished task a missing from rescue")
				}
				if now := p.Now(); now < 45*time.Second {
					p.Sleep(45*time.Second - now)
				}
				res, err := s.eng.resumeWorkflow(p, wf, AssignAll(ModeNative), abort.Rescue)
				if err != nil {
					t.Errorf("resume failed: %v", err)
					return
				}
				if len(res.Tasks) != 3 {
					t.Errorf("resumed result has %d tasks, want 3", len(res.Tasks))
				}
				if res.Task(wf, "a").FinishedAt > 40*time.Second {
					t.Error("finished task a was re-run by the rescue DAG")
				}
				if res.StartedAt != abort.Rescue.StartedAt {
					t.Errorf("resumed StartedAt = %v, want original %v", res.StartedAt, abort.Rescue.StartedAt)
				}
			})
			s.env.Run()
		})
	}
}

// TestEventModeHedges: the straggler timer must fire on the event-driven
// path too — a long task gets a speculative copy after HedgeAfter, and since
// neither copy fails the primary (submitted earlier) wins.
func TestEventModeHedges(t *testing.T) {
	s := newModeStack(t, "decentralized", nil)
	s.eng.HedgeAfter = 6 * time.Second
	tr := trace.New(s.env)
	wf := NewWorkflow("strag")
	if err := wf.AddTask(TaskSpec{ID: "t0", Transformation: "matmul", WorkScale: 40}); err != nil {
		t.Fatal(err)
	}
	s.env.Go("main", func(p *sim.Proc) {
		defer s.shutdown()
		res, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeNative))
		if err != nil {
			t.Error(err)
			return
		}
		if hedges, _ := hedgeCounts(tr, wf.Name); hedges < 1 {
			t.Errorf("hedges = %d, want >= 1", hedges)
		}
		if got := res.Task(wf, "t0").Attempts; got != 1 {
			t.Errorf("Attempts = %d, want 1 (hedges are not retries)", got)
		}
	})
	s.env.Run()
}

// TestTriggerModeRequiresBroker: misconfiguration fails the run up front.
func TestTriggerModeRequiresBroker(t *testing.T) {
	s := newStack(t, func(p *config.Params) { p.ExecMode = "trigger" })
	wf := chain(t, 1)
	s.env.Go("main", func(p *sim.Proc) {
		defer s.shutdown()
		_, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeNative))
		if err == nil || !strings.Contains(err.Error(), "Broker") {
			t.Errorf("err = %v, want broker requirement", err)
		}
	})
	s.env.Run()
}

// TestUnknownExecModeFailsRun: a typoed mode must abort the run naming the
// valid values, never silently fall back to the poll loop.
func TestUnknownExecModeFailsRun(t *testing.T) {
	s := newStack(t, func(p *config.Params) { p.ExecMode = "centralised" })
	wf := chain(t, 1)
	s.env.Go("main", func(p *sim.Proc) {
		defer s.shutdown()
		_, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeNative))
		if err == nil || !strings.Contains(err.Error(), "valid: poll, decentralized, trigger") {
			t.Errorf("err = %v, want unknown-mode error listing valid modes", err)
		}
	})
	s.env.Run()
}

// TestRunWorkflowThenMatchesRunWorkflow: the continuation form of a run
// ends at the same instant, with the same result, as RunWorkflow in a
// process on an identical stack, in every mode; a run that cannot start
// reports its error at once.
func TestRunWorkflowThenMatchesRunWorkflow(t *testing.T) {
	for _, mode := range []string{"poll", "decentralized", "trigger"} {
		t.Run(mode, func(t *testing.T) {
			var want, got *RunResult
			var wantAt, gotAt time.Duration
			a := newModeStack(t, mode, nil)
			a.env.Go("main", func(p *sim.Proc) {
				defer a.shutdown()
				var err error
				if want, err = a.eng.RunWorkflow(p, fanDAG(t, 3, 2), AssignAll(ModeNative)); err != nil {
					t.Error(err)
				}
				wantAt = p.Now()
			})
			a.env.Run()
			b := newModeStack(t, mode, nil)
			b.env.Defer(func() {
				b.eng.RunWorkflowThen(fanDAG(t, 3, 2), AssignAll(ModeNative), func(res *RunResult, err error) {
					defer b.shutdown()
					if err != nil {
						t.Error(err)
					}
					got, gotAt = res, b.env.Now()
				})
			})
			b.env.Run()
			if got == nil || want == nil || gotAt != wantAt || got.Makespan() != want.Makespan() || len(got.Tasks) != len(want.Tasks) {
				t.Errorf("continuation ended at %v with %+v, process at %v with %+v", gotAt, got, wantAt, want)
			}
			cyclic := chain(t, 2)
			if err := cyclic.AddDependency(taskID(1), taskID(0)); err != nil {
				t.Fatal(err)
			}
			called := false
			b.eng.RunWorkflowThen(cyclic, AssignAll(ModeNative), func(_ *RunResult, err error) {
				called = err != nil
			})
			if !called {
				t.Error("a run that cannot start did not report its error at once")
			}
		})
	}
}
