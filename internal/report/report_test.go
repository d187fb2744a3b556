package report

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/wms"
)

// fabricate builds a three-task chain run: a → b → c.
func fabricate(t *testing.T) (*wms.Workflow, *wms.RunResult) {
	t.Helper()
	wf := wms.NewWorkflow("w")
	for _, id := range []string{"a", "b", "c"} {
		if err := wf.AddTask(wms.TaskSpec{ID: id, Transformation: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	_ = wf.AddDependency("a", "b")
	_ = wf.AddDependency("b", "c")
	mk := func(id string, mode wms.Mode, sub, start, fin time.Duration) *wms.TaskResult {
		return &wms.TaskResult{ID: id, Mode: mode, Node: "worker1",
			SubmittedAt: sub, StartedAt: start, FinishedAt: fin}
	}
	run := &wms.RunResult{
		Workflow:   "w",
		StartedAt:  0,
		FinishedAt: 90 * time.Second,
		Tasks: []*wms.TaskResult{
			mk("a", wms.ModeNative, 0, 20*time.Second, 25*time.Second),
			mk("b", wms.ModeServerless, 30*time.Second, 50*time.Second, 55*time.Second),
			mk("c", wms.ModeContainer, 60*time.Second, 80*time.Second, 90*time.Second),
		},
	}
	return wf, run
}

func TestTimelineRendersAllTasks(t *testing.T) {
	_, run := fabricate(t)
	var sb strings.Builder
	if err := Timeline(&sb, run); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, id := range []string{"a", "b", "c"} {
		if !strings.Contains(out, id+" ") {
			t.Errorf("task %s missing from timeline:\n%s", id, out)
		}
	}
	// Mode letters appear in the bars.
	for _, letter := range []string{"n", "s", "c"} {
		if !strings.Contains(out, letter+letter) {
			t.Errorf("mode bar %q missing:\n%s", letter, out)
		}
	}
	if !strings.Contains(out, ".") {
		t.Error("queued spans missing")
	}
}

func TestTimelineEmptyRun(t *testing.T) {
	var sb strings.Builder
	if err := Timeline(&sb, &wms.RunResult{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no tasks") {
		t.Error("empty run not reported")
	}
}

func TestSummaryCountsModes(t *testing.T) {
	_, run := fabricate(t)
	var sb strings.Builder
	if err := Summary(&sb, run); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, mode := range []string{"native", "container", "serverless"} {
		if !strings.Contains(out, mode) {
			t.Errorf("mode %s missing:\n%s", mode, out)
		}
	}
	if !strings.Contains(out, "makespan: 90.0s") {
		t.Errorf("makespan missing:\n%s", out)
	}
}

func TestCriticalPathFollowsChain(t *testing.T) {
	wf, run := fabricate(t)
	var sb strings.Builder
	if err := CriticalPath(&sb, wf, run); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	ia := strings.Index(out, "a ")
	ib := strings.Index(out, "b ")
	ic := strings.Index(out, "c ")
	if ia < 0 || ib < 0 || ic < 0 || !(ia < ib && ib < ic) {
		t.Errorf("critical path not a→b→c:\n%s", out)
	}
}

func TestCriticalPathDiamondPicksSlowerBranch(t *testing.T) {
	wf := wms.NewWorkflow("d")
	for _, id := range []string{"src", "fast", "slow", "sink"} {
		_ = wf.AddTask(wms.TaskSpec{ID: id, Transformation: "x"})
	}
	_ = wf.AddDependency("src", "fast")
	_ = wf.AddDependency("src", "slow")
	_ = wf.AddDependency("fast", "sink")
	_ = wf.AddDependency("slow", "sink")
	sec := func(s int) time.Duration { return time.Duration(s) * time.Second }
	run := &wms.RunResult{
		Workflow: "d", FinishedAt: sec(100),
		Tasks: []*wms.TaskResult{ // declaration order
			{ID: "src", SubmittedAt: 0, StartedAt: sec(1), FinishedAt: sec(10)},
			{ID: "fast", SubmittedAt: sec(10), StartedAt: sec(12), FinishedAt: sec(20)},
			{ID: "slow", SubmittedAt: sec(10), StartedAt: sec(12), FinishedAt: sec(70)},
			{ID: "sink", SubmittedAt: sec(70), StartedAt: sec(75), FinishedAt: sec(100)},
		},
	}
	var sb strings.Builder
	if err := CriticalPath(&sb, wf, run); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "slow") {
		t.Errorf("critical path missed the slow branch:\n%s", out)
	}
	if strings.Contains(out, "fast") {
		t.Errorf("critical path included the fast branch:\n%s", out)
	}
}

// TestCriticalPathTiesAreDeterministic: eight tasks that all finish at
// 5 s give one output over many calls, naming the first-declared task.
func TestCriticalPathTiesAreDeterministic(t *testing.T) {
	wf := wms.NewWorkflow("tie")
	run := &wms.RunResult{Workflow: "tie"}
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("t%d", i)
		if err := wf.AddTask(wms.TaskSpec{ID: id, Transformation: "x"}); err != nil {
			t.Fatal(err)
		}
		run.Tasks = append(run.Tasks, &wms.TaskResult{ID: id, FinishedAt: 5 * time.Second})
	}
	outputs := map[string]bool{}
	for i := 0; i < 200; i++ {
		var sb strings.Builder
		if err := CriticalPath(&sb, wf, run); err != nil {
			t.Fatal(err)
		}
		outputs[sb.String()] = true
	}
	if len(outputs) != 1 {
		t.Fatalf("200 calls gave %d distinct outputs, want 1", len(outputs))
	}
	for out := range outputs {
		if !strings.Contains(out, "t0 ") || strings.Contains(out, "t1 ") {
			t.Errorf("critical path does not name the first-declared task alone:\n%s", out)
		}
	}
}

func TestWriteHTMLContainsTasksAndModes(t *testing.T) {
	_, run := fabricate(t)
	var sb strings.Builder
	if err := WriteHTML(&sb, run); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"<!DOCTYPE html>", "exec native", "exec serverless", "exec container", `title="a on worker1"`} {
		if !strings.Contains(out, want) {
			t.Errorf("HTML missing %q", want)
		}
	}
	// No template holes.
	if strings.Contains(out, "<no value>") {
		t.Error("unfilled template fields")
	}
}

func TestWriteHTMLEscapesNames(t *testing.T) {
	run := &wms.RunResult{
		Workflow:   `<script>alert(1)</script>`,
		FinishedAt: time.Second,
		Tasks: []*wms.TaskResult{
			{ID: `<b>x</b>`, Node: "w", SubmittedAt: 0, StartedAt: time.Second / 2, FinishedAt: time.Second},
		},
	}
	var sb strings.Builder
	if err := WriteHTML(&sb, run); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "<script>alert") || strings.Contains(sb.String(), "<b>x</b>") {
		t.Error("HTML injection not escaped")
	}
}
