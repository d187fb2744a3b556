package sched

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestScan pins the shared loop on its own: rotation order, the strict
// tie-break, the feasible target, and the counts it reports.
func TestScan(t *testing.T) {
	scores := []float64{1, 3, 3, 2, 3}
	eval := func(i int) (float64, bool) { return scores[i], i != 4 }
	for _, tc := range []struct {
		offset, target                int
		wantBest, wantFeas, wantVisit int
	}{
		{0, 5, 1, 4, 5},  // index 1 is the first 3 in order; 4 is infeasible
		{2, 5, 2, 4, 5},  // rotation starts at 2: it wins the tie with 1
		{4, 2, 1, 2, 3},  // visits 4 (infeasible), 0, 1, then stops at the target
		{-2, 5, 2, 4, 5}, // a negative offset counts as its magnitude
	} {
		best, feasible, visited := Scan(len(scores), tc.offset, tc.target, eval)
		if best != tc.wantBest || feasible != tc.wantFeas || visited != tc.wantVisit {
			t.Errorf("offset %d target %d: got (%d, %d, %d), want (%d, %d, %d)", tc.offset, tc.target,
				best, feasible, visited, tc.wantBest, tc.wantFeas, tc.wantVisit)
		}
	}
	if best, feasible, visited := Scan(0, 3, 0, eval); best != -1 || feasible != 0 || visited != 0 {
		t.Errorf("empty scan: got (%d, %d, %d), want (-1, 0, 0)", best, feasible, visited)
	}
	none := func(int) (float64, bool) { return 0, false }
	if best, feasible, visited := Scan(3, 1, 3, none); best != -1 || feasible != 0 || visited != 3 {
		t.Errorf("nothing feasible: got (%d, %d, %d), want (-1, 0, 3)", best, feasible, visited)
	}
}

// flat scores every candidate equally, so Scan outcomes isolate the
// rotation and sampling mechanics.
func flat(int) (float64, bool) { return 1, true }

// TestScanTieBreaking pins the determinism contract: the first candidate in
// rotation order wins ties, a strictly better score displaces it regardless
// of position, and the offset rotates which candidate is visited first.
func TestScanTieBreaking(t *testing.T) {
	for offset, want := range map[int]int{0: 0, 1: 1, 2: 2, 3: 0, 5: 2} {
		if best, _, _ := Scan(3, offset, 3, flat); best != want {
			t.Errorf("offset %d: winner %d, want %d", offset, best, want)
		}
	}
	pickOne := func(i int) (float64, bool) {
		if i == 1 {
			return 1, true
		}
		return 0, true
	}
	for offset := 0; offset < 6; offset++ {
		if best, _, _ := Scan(3, offset, 3, pickOne); best != 1 {
			t.Errorf("offset %d: strict improvement ignored, winner %d", offset, best)
		}
	}
}

// TestSamplingStopsEarly: with 1000 candidates at 20%, the scan scores
// exactly 200 feasible candidates and stops — the sweep's O(sample)
// placement.
func TestSamplingStopsEarly(t *testing.T) {
	best, feasible, visited := Scan(1000, 0, SampleTarget(1000, 20), flat)
	if visited != 200 || feasible != 200 {
		t.Errorf("visited %d feasible %d, want 200/200", visited, feasible)
	}
	if best != 0 {
		t.Errorf("winner %d, want first in rotation order", best)
	}
}

// TestSamplingFloor: the minFeasibleToScore floor keeps small samples
// honest — 10% of 500 is 50, but the scan still scores 100.
func TestSamplingFloor(t *testing.T) {
	if got := SampleTarget(500, 10); got != minFeasibleToScore {
		t.Errorf("target %d, want floor %d", got, minFeasibleToScore)
	}
	if _, feasible, _ := Scan(500, 0, SampleTarget(500, 10), flat); feasible != minFeasibleToScore {
		t.Errorf("feasible %d, want floor %d", feasible, minFeasibleToScore)
	}
}

// TestSamplingSmallClusterExhaustive: below the floor, and with sampling
// off (0 or 100 percent), every candidate is scored.
func TestSamplingSmallClusterExhaustive(t *testing.T) {
	for _, pct := range []int{0, 10, 100} {
		if _, feasible, visited := Scan(50, 0, SampleTarget(50, pct), flat); visited != 50 || feasible != 50 {
			t.Errorf("pct %d: visited %d feasible %d, want 50/50", pct, visited, feasible)
		}
	}
	if got := SampleTarget(5000, 0); got != 5000 {
		t.Errorf("SampleTarget(5000, 0) = %d, want every candidate", got)
	}
}

// TestSamplingRotation: the offset rotates the visit window, so different
// offsets see (and win with) different candidates — no suffix of the list
// is permanently shadowed.
func TestSamplingRotation(t *testing.T) {
	target := SampleTarget(1000, 10)
	a, _, _ := Scan(1000, 0, target, flat)
	b, _, _ := Scan(1000, 700, target, flat)
	if a != 0 || b != 700 {
		t.Errorf("winners %d / %d, want 0 / 700", a, b)
	}
}

// TestSamplingSkipsInfeasible: infeasible candidates do not count towards
// the target — the scan keeps visiting until it has scored enough feasible
// ones.
func TestSamplingSkipsInfeasible(t *testing.T) {
	oddOnly := func(i int) (float64, bool) { return 1, i%2 == 1 }
	_, feasible, visited := Scan(1000, 0, SampleTarget(1000, 10), oddOnly)
	if feasible != 100 {
		t.Errorf("feasible %d, want 100", feasible)
	}
	if visited <= feasible {
		t.Errorf("visited %d not > feasible %d despite infeasible candidates", visited, feasible)
	}
}

// TestRecord: a decision becomes one sched/place span under the parent with
// the node, the total, the feasible count and one label per term, keeping
// the +0 total and −0 term apart; a nil tracer records nothing.
func TestRecord(t *testing.T) {
	d := Decision{Node: "worker1", Score: 0, PerPlugin: []PluginScore{{"least-requests", math.Copysign(0, -1)}}, Feasible: 3}
	Record(nil, nil, "knative", "least-requests", "fn", d)

	tr := trace.New(sim.NewEnv(1))
	parent := tr.Start(nil, "knative", "invoke")
	Record(tr, parent, "knative", "least-requests", "fn", d)
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want the parent and one decision", len(spans))
	}
	sp := spans[1]
	if sp.Substrate() != "sched" || sp.Name() != "place" || sp.Parent() != parent.ID() || !sp.Ended() {
		t.Errorf("span %s/%s parent %d ended %v", sp.Substrate(), sp.Name(), sp.Parent(), sp.Ended())
	}
	for key, want := range map[string]string{
		"layer": "knative", "policy": "least-requests", "unit": "fn", "node": "worker1",
		"score": "0", "feasible": "3", "score.least-requests": "-0",
	} {
		if got, _ := sp.Label(key); got != want {
			t.Errorf("label %s = %q, want %q", key, got, want)
		}
	}
}
