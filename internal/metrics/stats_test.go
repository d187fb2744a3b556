package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("Summary = %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Errorf("empty Summary = %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P%.0f = %f, want %f", c.p, got, c.want)
		}
	}
	// Percentile must not reorder the caller's slice.
	xs2 := []float64{3, 1, 2}
	Percentile(xs2, 50)
	if xs2[0] != 3 || xs2[1] != 1 {
		t.Error("Percentile mutated input")
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2.5, 4.5, 6.5, 8.5} // y = 2x + 0.5
	fit, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-12 || math.Abs(fit.Intercept-0.5) > 1e-12 {
		t.Errorf("fit = %+v", fit)
	}
	if math.Abs(fit.R2-1) > 1e-12 {
		t.Errorf("R2 = %f, want 1", fit.R2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := LinearFit([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Error("degenerate x accepted")
	}
}

// Property: a fit of y = a·x + b + 0 noise recovers a and b for any a, b.
func TestPropertyLinearFitRecovers(t *testing.T) {
	f := func(a8, b8 int8) bool {
		a, b := float64(a8)/4, float64(b8)/4
		xs := []float64{0, 1, 2, 3, 4, 5}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = a*x + b
		}
		fit, err := LinearFit(xs, ys)
		if err != nil {
			return false
		}
		return math.Abs(fit.Slope-a) < 1e-9 && math.Abs(fit.Intercept-b) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: mean lies within [min, max] for nonempty samples.
func TestPropertyMeanWithinBounds(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Mean >= s.Min-1e-6 && s.Mean <= s.Max+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWelfordKnownValues(t *testing.T) {
	cases := []struct {
		name     string
		xs       []float64
		mean, sd float64
	}{
		{"empty", nil, 0, 0},
		{"single", []float64{7.5}, 7.5, 0},
		{"pair", []float64{2, 4}, 3, math.Sqrt(2)},
		{"one-to-five", []float64{1, 2, 3, 4, 5}, 3, math.Sqrt(2.5)},
		{"constant", []float64{4.2, 4.2, 4.2, 4.2}, 4.2, 0},
		{"negative", []float64{-3, -1, 1, 3}, 0, math.Sqrt(20.0 / 3)},
		// Catastrophic-cancellation probe: the naive sum-of-squares
		// formula loses the variance of a tight sample around a large
		// offset; Welford's recurrence does not.
		{"large-offset", []float64{1e9 + 1, 1e9 + 2, 1e9 + 3}, 1e9 + 2, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var w Welford
			for _, x := range c.xs {
				w.Add(x)
			}
			if w.N() != len(c.xs) {
				t.Errorf("N = %d, want %d", w.N(), len(c.xs))
			}
			if math.Abs(w.Mean()-c.mean) > 1e-9*math.Max(1, math.Abs(c.mean)) {
				t.Errorf("Mean = %v, want %v", w.Mean(), c.mean)
			}
			if math.Abs(w.Std()-c.sd) > 1e-9 {
				t.Errorf("Std = %v, want %v", w.Std(), c.sd)
			}
		})
	}
}

// twoPassStd is the sample standard deviation by the two-pass formula.
func twoPassStd(xs []float64, mean float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	ss := 0.0
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Property: Welford agrees with the two-pass Summarize on any finite sample.
func TestPropertyWelfordMatchesSummarize(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		var w Welford
		for _, x := range xs {
			w.Add(x)
		}
		s := Summarize(xs)
		scale := math.Max(1, math.Abs(s.Mean))
		std := twoPassStd(xs, s.Mean)
		return w.N() == s.N &&
			math.Abs(w.Mean()-s.Mean) < 1e-6*scale &&
			math.Abs(w.Std()-std) < 1e-6*math.Max(1, std)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableWrite(t *testing.T) {
	tbl := NewTable("tasks", "docker_s", "knative_s")
	tbl.AddRow(20, 12.5, 9.75)
	tbl.AddRow(160, 100.0, 78.0)
	var sb strings.Builder
	if err := tbl.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "tasks") || !strings.Contains(out, "100.000") {
		t.Errorf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("got %d lines, want 4", len(lines))
	}
}

func TestMinMaxMean(t *testing.T) {
	xs := []float64{4, 1, 9}
	if Mean(xs) != (4+1+9)/3.0 {
		t.Errorf("Mean = %f", Mean(xs))
	}
	if Mean(nil) != 0 {
		t.Error("empty-sample mean nonzero")
	}
}
