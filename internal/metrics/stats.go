// Package metrics provides the measurement toolkit used by the experiment
// harness: summary statistics, least-squares regression (the paper reports
// regression slopes in Figs. 1 and 2), and plain-text table rendering for
// reproducing the paper's reported series.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds basic descriptive statistics of a sample.
type Summary struct {
	N    int
	Mean float64
	Min  float64
	Max  float64
}

// Summarize computes descriptive statistics. An empty sample yields a zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	return s
}

// Welford is a streaming mean/variance accumulator (Welford's online
// algorithm). It is the one audited aggregation path for the experiment
// harness: every per-repetition metric is folded through a Welford in
// repetition order, so a parallelised rep loop reports bit-identical
// statistics to the old sequential sum/=N arithmetic regardless of worker
// scheduling, and the zero value is safe (N 0, Mean 0, Std 0 — no division
// by a zero rep count anywhere downstream).
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations folded in.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean, or 0 before any observation.
func (w *Welford) Mean() float64 { return w.mean }

// variance returns the sample variance (n-1 denominator), or 0 for fewer than
// two observations.
func (w *Welford) variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation, or 0 for fewer than two
// observations.
func (w *Welford) Std() float64 { return math.Sqrt(w.variance()) }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (0–100) using linear interpolation
// between order statistics. It does not modify xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Fit is the result of a simple least-squares linear regression y = a·x + b.
type Fit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// LinearFit fits y = slope·x + intercept by ordinary least squares and
// returns the fit with its coefficient of determination. It returns an error
// when fewer than two points are given or all x values coincide.
func LinearFit(xs, ys []float64) (Fit, error) {
	if len(xs) != len(ys) {
		return Fit{}, fmt.Errorf("metrics: length mismatch %d vs %d", len(xs), len(ys))
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		return Fit{}, fmt.Errorf("metrics: need at least 2 points, got %d", len(xs))
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Fit{}, fmt.Errorf("metrics: degenerate x values")
	}
	slope := sxy / sxx
	fit := Fit{Slope: slope, Intercept: my - slope*mx}
	if syy == 0 {
		fit.R2 = 1
	} else {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	}
	return fit, nil
}

// String renders the fit the way the paper annotates its plots.
func (f Fit) String() string {
	return fmt.Sprintf("y = %.3f·x + %.3f (R²=%.3f)", f.Slope, f.Intercept, f.R2)
}
