package trace_test

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

func TestSpanLifecycleAndThreading(t *testing.T) {
	env := sim.NewEnv(1)
	tr := trace.New(env)
	if trace.FromEnv(env) != tr {
		t.Fatal("FromEnv did not return the attached tracer")
	}
	env.Go("worker", func(p *sim.Proc) {
		root := tr.Start(nil, "test", "root", trace.L("k", "v"))
		if root.Parent() != 0 {
			t.Errorf("root parent = %d, want 0", root.Parent())
		}
		p.Sleep(time.Second)
		child := tr.Start(root, "test", "child")
		if child.Parent() != root.ID() {
			t.Errorf("child parent = %d, want %d", child.Parent(), root.ID())
		}
		p.Sleep(2 * time.Second)
		child.End()
		root.End()
		root.End() // idempotent
		if got := root.Duration(); got != 3*time.Second {
			t.Errorf("root duration = %v, want 3s", got)
		}
		if got := child.Start(); got != time.Second {
			t.Errorf("child start = %v, want 1s", got)
		}
		if v, ok := root.Label("k"); !ok || v != "v" {
			t.Errorf("label k = %q,%v", v, ok)
		}
		root.SetLabel("k", "w")
		if v, _ := root.Label("k"); v != "w" {
			t.Errorf("SetLabel did not replace: %q", v)
		}
	})
	env.Run()
	if tr.Len() != 2 {
		t.Fatalf("recorded %d spans, want 2", tr.Len())
	}
	if tr.Span(1).ID() != 1 || tr.Span(3) != nil {
		t.Error("Span lookup by ID broken")
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	env := sim.NewEnv(1)
	if tr := trace.FromEnv(env); tr != nil {
		t.Fatal("tracer attached to fresh env")
	}
	tr := trace.FromEnv(env)
	sp := tr.Start(nil, "test", "op") // no tracer: nil span
	sp.SetLabel("a", "b")
	sp.End()
	if sp.Ended() {
		t.Error("nil span reports ended")
	}
	if tr.Len() != 0 || tr.Start(sp, "x", "y") != nil {
		t.Error("nil tracer not a no-op")
	}
}

func TestChromeExportIsValidAndDeterministic(t *testing.T) {
	build := func() []byte {
		env := sim.NewEnv(7)
		tr := trace.New(env)
		env.Go("w", func(p *sim.Proc) {
			a := tr.Start(nil, "s1", "a", trace.L("x", "1"))
			p.Sleep(1500 * time.Microsecond)
			b := tr.Start(a, "s2", "b")
			p.Sleep(time.Millisecond)
			b.End()
			a.End()
			tr.Start(nil, "s1", "never-ended")
		})
		env.Run()
		return tr.ChromeBytes()
	}
	a, b := build(), build()
	if string(a) != string(b) {
		t.Error("same-construction exports differ")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("exported %d events, want 2 (unended spans skipped)", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0]["cat"] != "s1" || doc.TraceEvents[1]["name"] != "b" {
		t.Errorf("unexpected event order/content: %v", doc.TraceEvents)
	}
}

// chainDAG is a linear a→b→c DAG for analyzer tests.
type chainDAG struct{ ids []string }

func (d chainDAG) TaskIDs() []string { return d.ids }
func (d chainDAG) Parents(id string) []string {
	for i, x := range d.ids {
		if x == id && i > 0 {
			return []string{d.ids[i-1]}
		}
	}
	return nil
}

func TestAnalyzeReconcilesWithMakespan(t *testing.T) {
	env := sim.NewEnv(3)
	tr := trace.New(env)
	env.Go("engine", func(p *sim.Proc) {
		wf := tr.Start(nil, "wms", "workflow", trace.L("workflow", "chain"))
		p.Sleep(time.Second) // initial poll slack → idle

		// Task a: one attempt, 2s queue + 3s exec, observed 1s late.
		ta := tr.Start(wf, "wms", "task", trace.L("workflow", "chain"), trace.L("task", "a"), trace.L("attempt", "1"))
		q := tr.Start(ta, "condor", "queue")
		p.Sleep(2 * time.Second)
		q.End()
		e := tr.Start(ta, "crt", "exec")
		p.Sleep(3 * time.Second)
		e.End()
		p.Sleep(time.Second) // completion → poll observation
		ta.End()

		// Task b: failed attempt (1s), 2s backoff gap, second attempt 2s.
		b1 := tr.Start(wf, "wms", "task", trace.L("workflow", "chain"), trace.L("task", "b"), trace.L("attempt", "1"))
		p.Sleep(time.Second)
		b1.End()
		p.Sleep(2 * time.Second) // retry backoff: no attempt span covers this
		b2 := tr.Start(wf, "wms", "task", trace.L("workflow", "chain"), trace.L("task", "b"), trace.L("attempt", "2"))
		e2 := tr.Start(b2, "crt", "exec")
		p.Sleep(2 * time.Second)
		e2.End()
		b2.End()
		wf.End()
	})
	env.Run()

	cp, err := trace.Analyze(tr, chainDAG{ids: []string{"a", "b"}}, "chain")
	if err != nil {
		t.Fatal(err)
	}
	if cp.Makespan != 12*time.Second {
		t.Errorf("makespan = %v, want 12s", cp.Makespan)
	}
	if got := cp.StageSum(); got != cp.Makespan {
		t.Errorf("stage sum %v != makespan %v", got, cp.Makespan)
	}
	if len(cp.Steps) != 2 || cp.Steps[0].Task != "a" || cp.Steps[1].Task != "b" {
		t.Fatalf("critical path = %+v, want [a b]", cp.Steps)
	}
	if cp.Steps[1].Attempts != 2 {
		t.Errorf("task b attempts = %d, want 2", cp.Steps[1].Attempts)
	}
	want := map[trace.Stage]time.Duration{
		trace.StageQueue:     2 * time.Second,
		trace.StageExec:      5 * time.Second,
		trace.StagePoll:      2 * time.Second, // a's observation lag + b1's uncovered self time
		trace.StageRetryWait: 2 * time.Second,
		trace.StageIdle:      time.Second,
	}
	for st, d := range want {
		if cp.Stages[st] != d {
			t.Errorf("stage %s = %v, want %v", st, cp.Stages[st], d)
		}
	}
	if sb := cp.Table(); sb == nil {
		t.Error("Table returned nil")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	env := sim.NewEnv(1)
	tr := trace.New(env)
	if _, err := trace.Analyze(nil, chainDAG{}, "x"); err == nil {
		t.Error("nil tracer accepted")
	}
	if _, err := trace.Analyze(tr, chainDAG{}, "missing"); err == nil {
		t.Error("missing workflow accepted")
	}
}

// TestUntracedStartAllocatesNothing: with no tracer attached, opening and
// ending a labelled span allocates nothing — the variadic label list stays
// on the caller's stack because Start copies what it keeps.
func TestUntracedStartAllocatesNothing(t *testing.T) {
	tr := trace.FromEnv(sim.NewEnv(1))
	node := "worker1"
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Start(nil, "crt", "exec", trace.L("image", "matmul"), trace.L("node", node))
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("%v allocations per untraced Start, want 0", allocs)
	}
}

// TestStartCopiesLabels: a span keeps its own copy of the labels passed to
// Start, so a caller reusing its slice cannot rewrite a recorded span.
func TestStartCopiesLabels(t *testing.T) {
	env := sim.NewEnv(1)
	tr := trace.New(env)
	labels := []trace.Label{trace.L("k", "v")}
	sp := tr.Start(nil, "test", "op", labels...)
	labels[0].Value = "changed"
	if v, _ := sp.Label("k"); v != "v" {
		t.Errorf("label k = %q after the caller's slice changed, want v", v)
	}
}
