package core

import (
	"strconv"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
	"repro/internal/wms"
	"repro/internal/workload"
)

// The tests here assert cross-layer trace invariants over full end-to-end
// runs: condor slot exclusivity, container-lifecycle completeness under
// fault-injected retries, and one wms attempt span per recorded attempt.

// tracedRun runs the Montage workflow once with tracing and optional fault
// rates, returning the tracer and the run result.
func tracedRun(t *testing.T, seed uint64, mode wms.Mode, jobFailRate, crtFailRate float64) (*trace.Tracer, *wms.RunResult) {
	t.Helper()
	prm := fastParams()
	s := NewStack(seed, prm)
	tr := trace.New(s.Env)
	if jobFailRate > 0 || crtFailRate > 0 {
		in := s.EnableFaults()
		horizon := 2 * time.Hour
		if jobFailRate > 0 {
			in.Schedule(faults.Fault{Kind: faults.KindJobFailure, At: time.Second, Duration: horizon, Rate: jobFailRate})
		}
		if crtFailRate > 0 {
			in.Schedule(faults.Fault{Kind: faults.KindCreateFail, At: time.Second, Duration: horizon, Rate: crtFailRate})
			in.Schedule(faults.Fault{Kind: faults.KindStartFail, At: time.Second, Duration: horizon, Rate: crtFailRate})
		}
	}
	var res *wms.RunResult
	s.Env.Go("main", func(p *sim.Proc) {
		defer s.Shutdown()
		wf := workload.Montage("mosaic", 4, 1<<20)
		if mode == wms.ModeServerless {
			if err := s.AutoIntegrate(p, wf, DefaultPolicy()); err != nil {
				t.Error(err)
				return
			}
		} else {
			for _, trf := range []string{"mProject", "mDiffFit", "mConcatFit", "mBgModel", "mBackground", "mAdd"} {
				s.RegisterTransformation(trf, 14<<20)
			}
		}
		r, err := s.Engine.RunWorkflow(p, wf, wms.AssignAll(mode))
		if err != nil {
			t.Error(err)
			return
		}
		res = r
	})
	s.Env.Run()
	if res == nil {
		t.Fatal("workflow did not complete")
	}
	return tr, res
}

// TestSlotExclusivityInvariant asserts no two condor payloads ever share a
// slot: the payload spans grouped by their claim's node:index slot label
// must be pairwise non-overlapping.
func TestSlotExclusivityInvariant(t *testing.T) {
	for _, mode := range []wms.Mode{wms.ModeNative, wms.ModeContainer} {
		tr, _ := tracedRun(t, 5, mode, 0, 0)
		tracetest.AssertSlotExclusive(t, tr, tracetest.Match{Substrate: "condor", Name: "payload"}, "slot")
		tracetest.AssertEnded(t, tr, tracetest.Match{Substrate: "condor"})
	}
}

// TestContainerLifecycleInvariant asserts the container-mode path leaks no
// containers even when fault injection forces creates, starts, and whole
// jobs to fail and retry: every created container is started and
// stop-removed exactly once.
func TestContainerLifecycleInvariant(t *testing.T) {
	tr, res := tracedRun(t, 6, wms.ModeContainer, 0.08, 0.08)
	tracetest.AssertContainerLifecycles(t, tr)
	tracetest.AssertEnded(t, tr, tracetest.Match{Substrate: "crt"})
	retries := 0
	for _, task := range res.Tasks {
		retries += task.Attempts - 1
	}
	if retries == 0 {
		t.Log("no retries at this seed; lifecycle invariant held but retry path unexercised")
	}
}

// TestAttemptSpanInvariant asserts that under injected job failures every
// task emits exactly one wms attempt span per recorded attempt, numbered in
// submission order.
func TestAttemptSpanInvariant(t *testing.T) {
	tr, res := tracedRun(t, 23, wms.ModeNative, 0.2, 0)
	retried := 0
	attempts := make(map[string]int, len(res.Tasks))
	for _, task := range res.Tasks {
		tracetest.AssertAttemptSpans(t, tr, "mosaic", task.ID, task.Attempts)
		if task.Attempts > 1 {
			retried++
		}
		attempts[task.ID] = task.Attempts
	}
	if retried == 0 {
		t.Error("seed produced no retried task; raise the fault rate to exercise the invariant")
	}
	// Failed attempts carry the failure label; the final attempt does not.
	for _, sp := range tracetest.Find(tr, tracetest.Match{Substrate: "wms", Name: "task"}) {
		attempt, _ := sp.Label("attempt")
		status, failed := sp.Label("status")
		id, _ := sp.Label("task")
		last := attempt == strconv.Itoa(attempts[id])
		if failed && status == "failed" && last {
			t.Errorf("task %s final attempt %s labelled failed on a completed run", id, attempt)
		}
		if !failed && !last {
			t.Errorf("task %s attempt %s (of %d) has no failure label", id, attempt, attempts[id])
		}
	}
}
