package sched

import (
	"math"
	"testing"

	"repro/internal/cluster"
)

func node(name string, cores, memMB, memUsed int) *cluster.Node {
	n := &cluster.Node{Name: name, Cores: cores, MemMB: memMB}
	if memUsed > 0 {
		if err := n.ReserveMem(memUsed); err != nil {
			panic(err)
		}
	}
	return n
}

func cand(n *cluster.Node) Candidate { return Candidate{Name: n.Name, Node: n} }

func TestFilters(t *testing.T) {
	cases := []struct {
		name string
		f    Filter
		req  Request
		c    Candidate
		want bool
	}{
		{"slot-free yes", SlotFree(), Request{}, Candidate{Name: "a", Free: 1}, true},
		{"slot-free no", SlotFree(), Request{}, Candidate{Name: "a", Free: 0}, false},
		{"requirements nil", Requirements(), Request{}, cand(node("a", 8, 1024, 0)), true},
		{"requirements accept", Requirements(), Request{Requires: func(n *cluster.Node) bool { return n.Name == "a" }}, cand(node("a", 8, 1024, 0)), true},
		{"requirements reject", Requirements(), Request{Requires: func(n *cluster.Node) bool { return n.Name == "a" }}, cand(node("b", 8, 1024, 0)), false},
		{"filter-func", FilterFunc("custom", func(_ Request, c Candidate) bool { return c.Free > 2 }), Request{}, Candidate{Free: 3}, true},
	}
	for _, tc := range cases {
		if got := tc.f.Fit(tc.req, tc.c); got != tc.want {
			t.Errorf("%s: Fit = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestScores(t *testing.T) {
	resident := map[string]bool{"a/x.fits": true, "a/y.fits": true, "b/x.fits": true}

	cases := []struct {
		name string
		s    Score
		req  Request
		c    Candidate
		want float64
	}{
		{"most-free", MostFree(), Request{}, Candidate{Free: 6}, 6},
		{"data-locality all", DataLocality(func(n *cluster.Node, lfn string) bool { return resident[n.Name+"/"+lfn] }), Request{Inputs: []string{"x.fits", "y.fits"}}, cand(node("a", 8, 1024, 0)), 1},
		{"data-locality half", DataLocality(func(n *cluster.Node, lfn string) bool { return resident[n.Name+"/"+lfn] }), Request{Inputs: []string{"x.fits", "y.fits"}}, cand(node("b", 8, 1024, 0)), 0.5},
		{"data-locality no-inputs", DataLocality(func(n *cluster.Node, lfn string) bool { return true }), Request{}, cand(node("a", 8, 1024, 0)), 0},
		{"score-func weighted", ScoreFunc("w", 10, func(_ Request, c Candidate) float64 { return 2 }), Request{}, Candidate{}, 2},
	}
	for _, tc := range cases {
		if got := tc.s.Eval(tc.req, tc.c); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: Eval = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestPickTieBreaking pins the determinism contract: the first candidate in
// rotation order wins ties, a strictly better score displaces it regardless
// of position, and the offset rotates which candidate is visited first.
func TestPickTieBreaking(t *testing.T) {
	flat := Policy{Name: "flat", Scores: []Score{ScoreFunc("zero", 1, func(Request, Candidate) float64 { return 0 })}}
	cands := []Candidate{{Name: "a"}, {Name: "b"}, {Name: "c"}}

	for offset, want := range map[int]string{0: "a", 1: "b", 2: "c", 3: "a", 5: "c"} {
		d := flat.Pick(Request{}, cands, offset)
		if d.Winner == nil || d.Winner.Name != want {
			t.Errorf("offset %d: winner = %+v, want %s", offset, d.Winner, want)
		}
	}

	better := Policy{Name: "better", Scores: []Score{ScoreFunc("pick-b", 1, func(_ Request, c Candidate) float64 {
		if c.Name == "b" {
			return 1
		}
		return 0
	})}}
	for offset := 0; offset < 6; offset++ {
		if d := better.Pick(Request{}, cands, offset); d.Winner == nil || d.Winner.Name != "b" {
			t.Errorf("offset %d: strict improvement ignored, winner %+v", offset, d.Winner)
		}
	}
}

func TestPickFiltersAndDecision(t *testing.T) {
	p := Policy{
		Name:    "filtered",
		Filters: []Filter{FilterFunc("free", func(_ Request, c Candidate) bool { return c.Free > 0 })},
		Scores: []Score{
			ScoreFunc("free", 1, func(_ Request, c Candidate) float64 { return float64(c.Free) }),
			ScoreFunc("bonus", 10, func(_ Request, c Candidate) float64 {
				if c.Name == "b" {
					return 1
				}
				return 0
			}),
		},
	}
	cands := []Candidate{{Name: "a", Free: 5}, {Name: "b", Free: 2}, {Name: "c", Free: 0}}
	d := p.Pick(Request{}, cands, 0)
	if d.Winner == nil || d.Winner.Name != "b" {
		t.Fatalf("winner = %+v, want b", d.Winner)
	}
	if d.Feasible != 2 {
		t.Errorf("feasible = %d, want 2 (c is full)", d.Feasible)
	}
	if want := 2.0 + 10*1; math.Abs(d.Score-want) > 1e-12 {
		t.Errorf("score = %v, want %v", d.Score, want)
	}
	if len(d.PerPlugin) != 2 || d.PerPlugin[0] != (PluginScore{"free", 2}) || d.PerPlugin[1] != (PluginScore{"bonus", 1}) {
		t.Errorf("per-plugin = %+v", d.PerPlugin)
	}

	// Nothing feasible → no winner, zero feasible.
	none := p.Pick(Request{}, []Candidate{{Name: "c", Free: 0}}, 0)
	if none.Winner != nil || none.Feasible != 0 {
		t.Errorf("expected empty decision, got %+v", none)
	}
	// Empty candidate list is fine.
	if d := p.Pick(Request{}, nil, 7); d.Winner != nil {
		t.Errorf("nil candidates produced a winner")
	}
}

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
}

func TestValidate(t *testing.T) {
	ok := Policy{Name: "ok", Filters: []Filter{SlotFree()}, Scores: []Score{MostFree()}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid policy rejected: %v", err)
	}
	cases := []struct {
		name string
		p    Policy
	}{
		{"no name", Policy{Scores: []Score{MostFree()}}},
		{"no scores", Policy{Name: "x"}},
		{"nil filter", Policy{Name: "x", Filters: []Filter{{Name: "broken"}}, Scores: []Score{MostFree()}}},
		{"nil score", Policy{Name: "x", Scores: []Score{{Name: "broken"}}}},
	}
	for _, tc := range cases {
		if err := tc.p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a malformed policy", tc.name)
		}
	}
}
