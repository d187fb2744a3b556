package workload

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/wms"
)

func TestFanOutFanInShape(t *testing.T) {
	const width, depth = 7, 5
	wf := FanOutFanIn(sim.NewRNG(1), "f", width, depth, 4096, func(*sim.RNG) float64 { return 1 })
	if wf.Len() != width*depth+2 {
		t.Fatalf("Len = %d, want %d", wf.Len(), width*depth+2)
	}
	if err := wf.Validate(); err != nil {
		t.Fatal(err)
	}
	children := 0
	for _, id := range wf.TaskIDs() {
		if slices.Contains(wf.Parents(id), "in") {
			children++
		}
	}
	if got := children; got != width {
		t.Errorf("entry fans out to %d tasks, want %d", got, width)
	}
	if got := len(wf.Parents("out")); got != width {
		t.Errorf("exit fans in from %d tasks, want %d", got, width)
	}
	// Each chain is strictly sequential between the fan points.
	for j := 0; j < width; j++ {
		for i := 0; i < depth; i++ {
			id := fmt.Sprintf("b%05d.s%04d", j, i)
			if got := len(wf.Parents(id)); got != 1 {
				t.Fatalf("task %s has %d parents, want 1", id, got)
			}
		}
	}
	// The only external input is the entry's seed file.
	if ext := wf.ExternalInputs(); len(ext) != 1 || ext[0].LFN != "f-seed.dat" {
		t.Errorf("external inputs = %v", ext)
	}
}

func TestFanOutFanInDeterministic(t *testing.T) {
	build := func(seed uint64) *wms.Workflow {
		return FanOutFanIn(sim.NewRNG(seed), "f", 9, 4, 4096, UniformScale(0.5, 2))
	}
	a, b := build(42), build(42)
	aIDs, bIDs := a.TaskIDs(), b.TaskIDs()
	if len(aIDs) != len(bIDs) {
		t.Fatalf("task counts differ: %d vs %d", len(aIDs), len(bIDs))
	}
	for i := range aIDs {
		if aIDs[i] != bIDs[i] {
			t.Fatalf("task order diverges at %d: %s vs %s", i, aIDs[i], bIDs[i])
		}
		ta, _ := a.Task(aIDs[i])
		tb, _ := b.Task(bIDs[i])
		if ta.WorkScale != tb.WorkScale {
			t.Fatalf("task %s scale differs: %v vs %v", aIDs[i], ta.WorkScale, tb.WorkScale)
		}
	}
	// A different seed must actually change the drawn scales.
	c := build(43)
	same := true
	for _, id := range aIDs {
		ta, _ := a.Task(id)
		tc, _ := c.Task(id)
		if ta.WorkScale != tc.WorkScale {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 drew identical scales")
	}
}

func TestScaleDists(t *testing.T) {
	rng := sim.NewRNG(7)
	for i := 0; i < 100; i++ {
		if s := UniformScale(0.5, 2)(rng); s < 0.5 || s >= 2 {
			t.Fatalf("UniformScale draw %v out of [0.5, 2)", s)
		}
	}
}
