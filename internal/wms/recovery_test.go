package wms

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/storage"
)

// attachFaults wires a fault injector into the substrates these tests
// exercise: the condor pool (job failures, node crashes), the container
// runtimes (create/start failures), and the kube control plane (drains).
func attachFaults(s *stack) *faults.Injector {
	in := faults.NewInjector(s.env)
	s.pool.AttachFaults(in)
	s.rts.AttachFaults(in)
	s.k.AttachFaults(in)
	return in
}

// pinnedChain builds a→b→c with a and c pinned to worker1 and b pinned to
// worker2, so a worker2-targeted fault deterministically hits exactly task b.
func pinnedChain(t *testing.T) *Workflow {
	t.Helper()
	wf := NewWorkflow("rescueme")
	one := int64(980000)
	add := func(spec TaskSpec) {
		t.Helper()
		if err := wf.AddTask(spec); err != nil {
			t.Fatal(err)
		}
	}
	add(TaskSpec{ID: "a", Transformation: "matmul", RequireNode: "worker1",
		Outputs: []FileSpec{{LFN: "ao", Bytes: one}}})
	add(TaskSpec{ID: "b", Transformation: "matmul", RequireNode: "worker2",
		Inputs: []FileSpec{{LFN: "ao", Bytes: one}}, Outputs: []FileSpec{{LFN: "bo", Bytes: one}}})
	add(TaskSpec{ID: "c", Transformation: "matmul", RequireNode: "worker1",
		Inputs: []FileSpec{{LFN: "bo", Bytes: one}}})
	_ = wf.AddDependency("a", "b")
	_ = wf.AddDependency("b", "c")
	return wf
}

func TestAbortWritesRescueAndResumeSkipsFinishedTasks(t *testing.T) {
	s := newStack(t, nil)
	in := attachFaults(s)
	s.eng.Retry = config.RetryPolicy{MaxAttempts: 2}
	// worker2 kills every job for the first 40 s of virtual time.
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
		if _, ok := abort.Rescue.Done["b"]; ok {
			t.Error("failed task b recorded as done")
		}

		// Wait out the incident, then resubmit the rescue DAG.
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
		if res.Task(wf, "b").StartedAt < 45*time.Second {
			t.Errorf("task b restarted at %v, before the resume", res.Task(wf, "b").StartedAt)
		}
		// The makespan spans the whole recovery story from the original start.
		if res.StartedAt != abort.Rescue.StartedAt {
			t.Errorf("resumed StartedAt = %v, want original %v", res.StartedAt, abort.Rescue.StartedAt)
		}
		if res.Makespan() < 45*time.Second {
			t.Errorf("makespan %v does not span the rescue", res.Makespan())
		}
	})
	s.env.Run()
}

func TestRunWorkflowWithRecoveryDrivesThroughAborts(t *testing.T) {
	s := newStack(t, nil)
	in := attachFaults(s)
	s.eng.Retry = config.RetryPolicy{MaxAttempts: 2}
	in.Schedule(faults.Fault{Kind: faults.KindJobFailure, At: 0, Duration: 40 * time.Second, Rate: 1, Target: "worker2"})
	wf := pinnedChain(t)

	s.env.Go("main", func(p *sim.Proc) {
		defer s.shutdown()
		res, stats, err := s.eng.RunWorkflowWithRecovery(p, wf, AssignAll(ModeNative), 10)
		if err != nil {
			t.Errorf("recovery did not complete: %v", err)
			return
		}
		if stats.Rescues < 1 {
			t.Errorf("rescues = %d, want ≥1 (task b must exhaust a budget at least once)", stats.Rescues)
		}
		if len(res.Tasks) != 3 {
			t.Errorf("tasks = %d, want 3", len(res.Tasks))
		}
	})
	s.env.Run()
}

func TestRecoveryBudgetExhausts(t *testing.T) {
	s := newStack(t, nil)
	in := attachFaults(s)
	s.eng.Retry = config.RetryPolicy{MaxAttempts: 1}
	// Permanent incident: recovery can never outlast it.
	in.Schedule(faults.Fault{Kind: faults.KindJobFailure, Rate: 1, Target: "worker2"})
	wf := pinnedChain(t)

	s.env.Go("main", func(p *sim.Proc) {
		defer s.shutdown()
		_, stats, err := s.eng.RunWorkflowWithRecovery(p, wf, AssignAll(ModeNative), 2)
		if err == nil {
			t.Error("recovery succeeded under a permanent fault")
			return
		}
		var abort *abortError
		if !errors.As(err, &abort) {
			t.Errorf("terminal err = %v, want abortError", err)
		}
		if stats.Rescues != 2 {
			t.Errorf("rescues = %d, want the full budget of 2", stats.Rescues)
		}
	})
	s.env.Run()
}

func TestResumeValidatesWorkflowName(t *testing.T) {
	s := newStack(t, nil)
	wf := chain(t, 1)
	s.env.Go("main", func(p *sim.Proc) {
		defer s.shutdown()
		_, err := s.eng.resumeWorkflow(p, wf, AssignAll(ModeNative), &rescueState{Workflow: "other"})
		if err == nil {
			t.Error("rescue for a different workflow accepted")
		}
	})
	s.env.Run()
}

func TestNodeDrainMidWorkflowStillCompletes(t *testing.T) {
	s := newStack(t, nil)
	in := attachFaults(s)
	s.eng.Retry = config.RetryPolicy{MaxAttempts: 5, BaseDelay: time.Second, Multiplier: 2}
	fs := storage.NewSharedFS(s.env, s.cl.Net, cluster.SubmitNodeName, 400e6)
	s.eng.Staging = StageSharedFS
	s.eng.FS = fs
	// worker2 crashes 3 s in — while the first wave of tasks is staging
	// inputs — and reboots a minute later.
	in.Schedule(faults.Fault{Kind: faults.KindNodeCrash, At: 3 * time.Second, Duration: time.Minute, Target: "worker2"})

	wf := NewWorkflow("fan")
	one := int64(980000)
	for i := 0; i < 8; i++ {
		spec := TaskSpec{
			ID:             taskID(i),
			Transformation: "matmul",
			Inputs:         []FileSpec{{LFN: "seed.dat", Bytes: one}},
			Outputs:        []FileSpec{{LFN: lfn(i + 1), Bytes: one}},
		}
		if err := wf.AddTask(spec); err != nil {
			t.Fatal(err)
		}
	}

	s.env.Go("main", func(p *sim.Proc) {
		defer s.shutdown()
		res, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeNative))
		if err != nil {
			t.Errorf("workflow did not survive the drain: %v", err)
			return
		}
		if len(res.Tasks) != 8 {
			t.Errorf("tasks = %d, want 8", len(res.Tasks))
		}
	})
	s.env.Run()
	// Correct outputs: every product landed on the share.
	for i := 0; i < 8; i++ {
		if !fs.Has(lfn(i + 1)) {
			t.Errorf("output %s missing from shared fs after drain recovery", lfn(i+1))
		}
	}
}

func TestRetriedContainerTasksLeakNoContainers(t *testing.T) {
	s := newStack(t, nil)
	in := attachFaults(s)
	s.eng.Retry = config.RetryPolicy{MaxAttempts: 8, BaseDelay: 100 * time.Millisecond, Multiplier: 2}
	// Nearly every container start fails; retries must stop-remove the dead
	// container each time or the runtimes leak state.
	in.Schedule(faults.Fault{Kind: faults.KindStartFail, Rate: 0.4})
	wf := chain(t, 3)

	s.env.Go("main", func(p *sim.Proc) {
		defer s.shutdown()
		if _, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeContainer)); err != nil {
			t.Errorf("workflow failed: %v", err)
		}
	})
	s.env.Run()
	created, live := 0, 0
	for _, rt := range s.rts {
		created += rt.CreatedTotal()
		live += rt.Live()
	}
	if created < 4 {
		t.Errorf("containers created = %d; expected at least one injected start failure", created)
	}
	if live != 0 {
		t.Errorf("leaked containers after retries: %d", live)
	}
}

// TestResumeKeepsRescuedTaskWhoseParentIsNot resumes from a hand-edited
// rescue that holds b but not its parent a: a runs, and finishing it must
// not release the already-finished b a second time.
func TestResumeKeepsRescuedTaskWhoseParentIsNot(t *testing.T) {
	for _, m := range config.ExecModes() {
		mode := m.String()
		s := newModeStack(t, mode, nil)
		wf := pinnedChain(t)
		rescued := &TaskResult{ID: "b", Mode: ModeNative, Attempts: 1}
		rescue := &rescueState{Workflow: wf.Name, Done: map[string]*TaskResult{"b": rescued}}
		s.env.Go("main", func(p *sim.Proc) {
			defer s.shutdown()
			res, err := s.eng.resumeWorkflow(p, wf, AssignAll(ModeNative), rescue)
			if err != nil {
				t.Errorf("%s: resume: %v", mode, err)
				return
			}
			if len(res.Tasks) != 3 || res.Task(wf, "b") != rescued {
				t.Errorf("%s: resumed run has %d tasks, b = %+v; want 3 with b the rescued result", mode, len(res.Tasks), res.Task(wf, "b"))
			}
		})
		s.env.Run()
	}
}
