package wms

import (
	"testing"

	"repro/internal/sim"
)

func chain(t *testing.T, n int) *Workflow {
	t.Helper()
	wf := NewWorkflow("chain")
	const mb = int64(980000)
	for i := 0; i < n; i++ {
		task := TaskSpec{
			ID:             taskID(i),
			Transformation: "matmul",
			Inputs: []FileSpec{
				{LFN: lfn(i), Bytes: mb},
				{LFN: "b.dat", Bytes: mb},
			},
			Outputs: []FileSpec{{LFN: lfn(i + 1), Bytes: mb}},
		}
		if err := wf.AddTask(task); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := wf.AddDependency(taskID(i-1), taskID(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return wf
}

func taskID(i int) string { return "t" + string(rune('0'+i/10)) + string(rune('0'+i%10)) }
func lfn(i int) string    { return "m" + string(rune('0'+i/10)) + string(rune('0'+i%10)) + ".dat" }

// topoIDs is w's topological order as task IDs.
func topoIDs(t *testing.T, w *Workflow) []string {
	t.Helper()
	topo, err := w.topo()
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(topo))
	for k, i := range topo {
		ids[k] = w.tasks[i].ID
	}
	return ids
}

func TestChainStructure(t *testing.T) {
	wf := chain(t, 10)
	if wf.Len() != 10 {
		t.Fatalf("Len = %d", wf.Len())
	}
	topo := topoIDs(t, wf)
	for i := 1; i < len(topo); i++ {
		if topo[i-1] >= topo[i] {
			t.Fatalf("topo order broken: %v", topo)
		}
	}
	if err := wf.Validate(); err != nil {
		t.Fatal(err)
	}
	ext := wf.ExternalInputs()
	// m00.dat (first input) and b.dat (shared second operand).
	if len(ext) != 2 {
		t.Fatalf("external inputs = %v", ext)
	}
}

func TestCycleDetected(t *testing.T) {
	wf := NewWorkflow("cyclic")
	_ = wf.AddTask(TaskSpec{ID: "a", Transformation: "x"})
	_ = wf.AddTask(TaskSpec{ID: "b", Transformation: "x"})
	_ = wf.AddDependency("a", "b")
	_ = wf.AddDependency("b", "a")
	if _, err := wf.topo(); err == nil {
		t.Error("cycle not detected")
	}
	if err := wf.Validate(); err == nil {
		t.Error("Validate accepted a cyclic workflow")
	}
}

func TestValidateRejectsNonAncestorInput(t *testing.T) {
	wf := NewWorkflow("bad")
	_ = wf.AddTask(TaskSpec{
		ID: "producer", Transformation: "x",
		Outputs: []FileSpec{{LFN: "out.dat", Bytes: 1}},
	})
	_ = wf.AddTask(TaskSpec{
		ID: "consumer", Transformation: "x",
		Inputs: []FileSpec{{LFN: "out.dat", Bytes: 1}},
	})
	// No dependency declared: consumer could run before producer.
	if err := wf.Validate(); err == nil {
		t.Error("Validate accepted input from non-ancestor")
	}
	_ = wf.AddDependency("producer", "consumer")
	if err := wf.Validate(); err != nil {
		t.Errorf("Validate rejected valid workflow: %v", err)
	}
}

func TestDuplicateTaskRejected(t *testing.T) {
	wf := NewWorkflow("dup")
	if err := wf.AddTask(TaskSpec{ID: "a", Transformation: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := wf.AddTask(TaskSpec{ID: "a", Transformation: "x"}); err == nil {
		t.Error("duplicate task accepted")
	}
	if err := wf.AddTask(TaskSpec{Transformation: "x"}); err == nil {
		t.Error("empty ID accepted")
	}
}

func TestDependencyUnknownTask(t *testing.T) {
	wf := NewWorkflow("dep")
	_ = wf.AddTask(TaskSpec{ID: "a", Transformation: "x"})
	if err := wf.AddDependency("a", "ghost"); err == nil {
		t.Error("dependency on unknown task accepted")
	}
	if err := wf.AddDependency("ghost", "a"); err == nil {
		t.Error("dependency from unknown task accepted")
	}
}

func TestDiamondValidates(t *testing.T) {
	wf := NewWorkflow("diamond")
	_ = wf.AddTask(TaskSpec{ID: "src", Transformation: "x", Outputs: []FileSpec{{LFN: "s", Bytes: 1}}})
	_ = wf.AddTask(TaskSpec{ID: "l", Transformation: "x", Inputs: []FileSpec{{LFN: "s", Bytes: 1}}, Outputs: []FileSpec{{LFN: "lo", Bytes: 1}}})
	_ = wf.AddTask(TaskSpec{ID: "r", Transformation: "x", Inputs: []FileSpec{{LFN: "s", Bytes: 1}}, Outputs: []FileSpec{{LFN: "ro", Bytes: 1}}})
	_ = wf.AddTask(TaskSpec{ID: "sink", Transformation: "x", Inputs: []FileSpec{{LFN: "lo", Bytes: 1}, {LFN: "ro", Bytes: 1}}})
	_ = wf.AddDependency("src", "l")
	_ = wf.AddDependency("src", "r")
	_ = wf.AddDependency("l", "sink")
	_ = wf.AddDependency("r", "sink")
	if err := wf.Validate(); err != nil {
		t.Fatal(err)
	}
	topo := topoIDs(t, wf)
	pos := map[string]int{}
	for i, id := range topo {
		pos[id] = i
	}
	if !(pos["src"] < pos["l"] && pos["src"] < pos["r"] && pos["l"] < pos["sink"] && pos["r"] < pos["sink"]) {
		t.Errorf("topo = %v", topo)
	}
}

func TestAssignFractions(t *testing.T) {
	rng := sim.NewRNG(7)
	assign := AssignFractions(rng, 0.5, 0.0, 0.5)
	counts := map[Mode]int{}
	for i := 0; i < 2000; i++ {
		counts[assign("wf", "t")]++
	}
	if counts[ModeContainer] != 0 {
		t.Errorf("zero-weight mode chosen %d times", counts[ModeContainer])
	}
	if counts[ModeNative] < 850 || counts[ModeNative] > 1150 {
		t.Errorf("native fraction skewed: %d/2000", counts[ModeNative])
	}
}

func TestAssignAll(t *testing.T) {
	assign := AssignAll(ModeContainer)
	if assign("w", "t") != ModeContainer {
		t.Error("AssignAll wrong")
	}
}

func TestTaskByteSums(t *testing.T) {
	task := TaskSpec{
		Inputs:  []FileSpec{{LFN: "a", Bytes: 10}, {LFN: "b", Bytes: 20}},
		Outputs: []FileSpec{{LFN: "c", Bytes: 5}},
	}
	if task.inputBytes() != 30 || task.outputBytes() != 5 {
		t.Errorf("sums = %d/%d", task.inputBytes(), task.outputBytes())
	}
}
