package workload

import (
	"slices"
	"testing"
)

func TestChainShape(t *testing.T) {
	wf := Chain("w", 10, 980000)
	if wf.Len() != 10 {
		t.Fatalf("Len = %d", wf.Len())
	}
	if err := wf.Validate(); err != nil {
		t.Fatal(err)
	}
	// Strictly sequential: every non-root task has exactly one parent.
	roots := 0
	for _, id := range wf.TaskIDs() {
		switch len(wf.Parents(id)) {
		case 0:
			roots++
		case 1:
		default:
			t.Errorf("task %s has %d parents", id, len(wf.Parents(id)))
		}
	}
	if roots != 1 {
		t.Errorf("roots = %d, want 1", roots)
	}
	// External inputs: the chain's first matrix and the shared operand.
	if got := len(wf.ExternalInputs()); got != 2 {
		t.Errorf("external inputs = %d, want 2", got)
	}
}

func TestConcurrentChainsAreIndependent(t *testing.T) {
	wfs := ConcurrentChains(10, 10, 980000)
	if len(wfs) != 10 {
		t.Fatalf("workflows = %d", len(wfs))
	}
	names := map[string]bool{}
	for _, wf := range wfs {
		if names[wf.Name] {
			t.Errorf("duplicate workflow name %s", wf.Name)
		}
		names[wf.Name] = true
		if err := wf.Validate(); err != nil {
			t.Error(err)
		}
		// LFNs are namespaced per chain so runs do not collide.
		for _, f := range wf.ExternalInputs() {
			if f.LFN[:4] != wf.Name {
				t.Errorf("external input %q not namespaced to %s", f.LFN, wf.Name)
			}
		}
	}
}

func TestSplitChainShape(t *testing.T) {
	wf := SplitChain("r", 3, 4, 980000, 16, 0.05)
	if wf.Len() != 12 {
		t.Fatalf("Len = %d, want 12", wf.Len())
	}
	if err := wf.Validate(); err != nil {
		t.Fatal(err)
	}
	// Stage-1+ subtasks depend on every stage-0 subtask.
	for _, id := range wf.TaskIDs() {
		task, _ := wf.Task(id)
		parents := wf.Parents(id)
		switch id[:3] {
		case "s00":
			if len(parents) != 0 {
				t.Errorf("stage-0 task %s has parents", id)
			}
		default:
			if len(parents) != 4 {
				t.Errorf("task %s has %d parents, want 4 (join)", id, len(parents))
			}
		}
		want := 16 * (1.0/4 + 0.05)
		if task.WorkScale != want {
			t.Errorf("task %s WorkScale = %f, want %f", id, task.WorkScale, want)
		}
	}
	// Total work grows with the split overhead: 12 subtasks x 4.8 > 3 x 16.
	total := 0.0
	for _, id := range wf.TaskIDs() {
		task, _ := wf.Task(id)
		total += task.WorkScale
	}
	if total <= 3*16 {
		t.Errorf("split total work %f not above unsplit %d (overhead missing)", total, 3*16)
	}
}

func TestSplitChainSplitOneEqualsChainShape(t *testing.T) {
	wf := SplitChain("r", 5, 1, 980000, 1, 0)
	if wf.Len() != 5 {
		t.Fatalf("Len = %d", wf.Len())
	}
	if err := wf.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, id := range wf.TaskIDs() {
		task, _ := wf.Task(id)
		if task.WorkScale != 1 {
			t.Errorf("task %s WorkScale = %f, want 1", id, task.WorkScale)
		}
	}
}

func TestMontageShape(t *testing.T) {
	const tiles = 6
	wf := Montage("m", tiles, 4<<20)
	if err := wf.Validate(); err != nil {
		t.Fatal(err)
	}
	// tiles projects + (tiles-1) difffits + concat + bgmodel + tiles
	// backgrounds + add.
	want := tiles + (tiles - 1) + 1 + 1 + tiles + 1
	if wf.Len() != want {
		t.Fatalf("Len = %d, want %d", wf.Len(), want)
	}
	// The mosaic task joins every background.
	if got := len(wf.Parents("add")); got != tiles {
		t.Errorf("add has %d parents, want %d", got, tiles)
	}
	// External inputs are exactly the raw tiles.
	if got := len(wf.ExternalInputs()); got != tiles {
		t.Errorf("external inputs = %d, want %d", got, tiles)
	}
	// Multi-transformation: every Montage stage's transformation is used.
	used := map[string]bool{}
	for _, id := range wf.TaskIDs() {
		task, _ := wf.Task(id)
		used[task.Transformation] = true
	}
	for _, tr := range []string{"mProject", "mDiffFit", "mConcatFit", "mBgModel", "mBackground", "mAdd"} {
		if !used[tr] {
			t.Errorf("transformation %s unused", tr)
		}
	}
	// Topological sanity: bgmodel after concatfit, backgrounds after
	// bgmodel.
	for _, edge := range [][2]string{{"concatfit", "bgmodel"}, {"bgmodel", "background000"}, {"background000", "add"}} {
		if !slices.Contains(wf.Parents(edge[1]), edge[0]) {
			t.Errorf("montage levels out of order: %s does not follow %s", edge[1], edge[0])
		}
	}
}

func TestMontageTooFewTilesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for 1 tile")
		}
	}()
	Montage("m", 1, 1<<20)
}

func TestFanOutShape(t *testing.T) {
	wf := FanOut("p", 32, 980000)
	if wf.Len() != 32 {
		t.Fatalf("Len = %d", wf.Len())
	}
	if err := wf.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, id := range wf.TaskIDs() {
		if len(wf.Parents(id)) != 0 {
			t.Errorf("fan-out task %s has parents", id)
		}
	}
}
