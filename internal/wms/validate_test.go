package wms

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// referenceValidate is the ancestor-set Validate that the index-based one
// replaced, kept as the oracle: Kahn's algorithm over string IDs, then, in
// topological order, the set of LFNs visible to each task through its
// ancestors.
func referenceValidate(w *Workflow) error {
	ids := w.TaskIDs()
	indeg := make(map[string]int, len(ids))
	var queue []string
	for _, id := range ids {
		indeg[id] = len(w.Parents(id))
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	var topo []string
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		topo = append(topo, id)
		for _, c := range w.ids(w.childs, id) {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(topo) != len(ids) {
		return fmt.Errorf("wms: workflow %s has a cycle", w.Name)
	}
	produced := make(map[string]bool)
	for _, id := range ids {
		t, _ := w.Task(id)
		for _, f := range t.Outputs {
			produced[f.LFN] = true
		}
	}
	availAt := make(map[string]map[string]bool, len(ids))
	for _, id := range topo {
		avail := make(map[string]bool)
		for _, par := range w.Parents(id) {
			for lfn := range availAt[par] {
				avail[lfn] = true
			}
			pt, _ := w.Task(par)
			for _, f := range pt.Outputs {
				avail[f.LFN] = true
			}
		}
		t, _ := w.Task(id)
		for _, f := range t.Inputs {
			if produced[f.LFN] && !avail[f.LFN] {
				return fmt.Errorf("wms: task %s input %q is produced by a non-ancestor", id, f.LFN)
			}
		}
		availAt[id] = avail
	}
	return nil
}

// workflowFromBytes decodes a small random DAG: up to 8 tasks, each with up
// to two outputs and three inputs over a 6-LFN alphabet (so LFNs get several
// producers and inputs come from parents, grandparents, unrelated tasks or
// nowhere), then edges from byte pairs. An edge whose first byte has its top
// bit clear points from the lower to the higher index; the rest keep their
// direction, so cycles, self-loops and duplicate edges all occur.
func workflowFromBytes(data []byte) *Workflow {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	lfn := func() FileSpec { return FileSpec{LFN: fmt.Sprintf("f%d", next()%6), Bytes: 1} }
	wf := NewWorkflow("fuzz")
	n := int(next()%8) + 1
	for i := 0; i < n; i++ {
		t := TaskSpec{ID: fmt.Sprintf("t%d", i), Transformation: "x"}
		for k := int(next() % 3); k > 0; k-- {
			t.Outputs = append(t.Outputs, lfn())
		}
		for k := int(next() % 4); k > 0; k-- {
			t.Inputs = append(t.Inputs, lfn())
		}
		_ = wf.AddTask(t)
	}
	for len(data) >= 2 {
		x, y := next(), next()
		a, b := int(x&0x7f)%n, int(y)%n
		if x&0x80 == 0 && a > b {
			a, b = b, a
		}
		_ = wf.AddDependency(fmt.Sprintf("t%d", a), fmt.Sprintf("t%d", b))
	}
	return wf
}

func checkValidateAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	wf := workflowFromBytes(data)
	got, want := wf.Validate(), referenceValidate(wf)
	if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
		t.Fatalf("Validate = %v, reference = %v (input %x)", got, want, data)
	}
}

// FuzzWorkflowValidate is the differential test of the index-based
// Validate: on every decoded DAG it must agree with the ancestor-set
// reference on nil versus error and on the exact error text.
func FuzzWorkflowValidate(f *testing.F) {
	f.Add([]byte{1, 1, 0, 0, 0, 1, 0, 0, 1})             // t1 reads its parent's f0
	f.Add([]byte{2, 1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1, 2}) // t2 reads its grandparent's f0
	f.Add([]byte{1, 0, 0, 0, 0, 0, 1, 0x81, 0})          // t0 ⇄ t1 cycle
	f.Add([]byte{2, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 2})    // f0 has two producers, one a parent
	f.Add([]byte{2, 1, 0, 0, 0, 0, 0, 1, 0, 1, 2})       // f0's only producer is a non-ancestor
	f.Add([]byte{1, 1, 0, 0, 0, 1, 0, 0, 1, 0, 1})       // duplicate edge t0 → t1
	f.Fuzz(func(t *testing.T, data []byte) {
		checkValidateAgainstReference(t, data)
	})
}

// TestValidateMatchesReferenceRandom runs the differential check over a
// seeded batch of random inputs, so plain `go test` covers more than the
// fuzz seeds, and checks the batch holds valid, cyclic and non-ancestor
// workflows alike.
func TestValidateMatchesReferenceRandom(t *testing.T) {
	rng := sim.NewRNG(7)
	kinds := make(map[string]int)
	for k := 0; k < 3000; k++ {
		data := make([]byte, 8+rng.Intn(40))
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		checkValidateAgainstReference(t, data)
		switch err := workflowFromBytes(data).Validate(); {
		case err == nil:
			kinds["valid"]++
		case strings.Contains(err.Error(), "cycle"):
			kinds["cycle"]++
		default:
			kinds["non-ancestor"]++
		}
	}
	if len(kinds) != 3 {
		t.Fatalf("random batch covers only %v", kinds)
	}
}
