package workload

import (
	"math"
	"time"

	"repro/internal/sim"
)

// RateFn is a time-varying request rate in requests per second. Traffic
// generators evaluate it at virtual time t relative to the start of the
// run.
type RateFn func(t time.Duration) float64

// DiurnalRate is a sinusoidal day/night curve: the rate oscillates between
// base×(1-swing) and base×(1+swing) with the given period, peaking at a
// quarter period. swing must lie in [0, 1].
func DiurnalRate(base, swing float64, period time.Duration) RateFn {
	if swing < 0 || swing > 1 {
		panic("workload: diurnal swing must be in [0, 1]")
	}
	return func(t time.Duration) float64 {
		phase := 2 * math.Pi * float64(t) / float64(period)
		return base * (1 + swing*math.Sin(phase))
	}
}

// FlashCrowd overlays a burst on an underlying rate: between start and
// start+width the rate is multiplied by boost (≥ 1). The edges are sharp —
// the point of a flash crowd is that the autoscaler gets no warning.
func FlashCrowd(underlying RateFn, start, width time.Duration, boost float64) RateFn {
	if boost < 1 {
		panic("workload: flash-crowd boost must be >= 1")
	}
	return func(t time.Duration) float64 {
		r := underlying(t)
		if t >= start && t < start+width {
			r *= boost
		}
		return r
	}
}

// OpenLoop yields the arrival offsets of a non-homogeneous Poisson process
// with intensity rate(t) over [0, horizon), generated by thinning against
// peak: candidate arrivals are drawn from a homogeneous process at the
// peak rate and accepted with probability rate(t)/peak. The sequence is
// fully determined by the RNG, so runs are reproducible and
// worker-count-independent. Arrivals are delivered in order through visit;
// returning false stops generation early.
func OpenLoop(rng *sim.RNG, rate RateFn, peak float64, horizon time.Duration, visit func(at time.Duration) bool) {
	if peak <= 0 {
		return
	}
	t := time.Duration(0)
	for {
		gap := rng.ExpFloat64() / peak // seconds
		t += time.Duration(gap * float64(time.Second))
		if t >= horizon {
			return
		}
		if rng.Float64()*peak >= rate(t) {
			continue // thinned
		}
		if !visit(t) {
			return
		}
	}
}

// ZipfWeights returns n weights following a Zipf distribution with
// exponent alpha, normalized to sum to one: weight[i] ∝ 1/(i+1)^alpha.
// With alpha 0 the mix is uniform; alpha around 1 gives the heavy-tailed
// popularity skew typical of multi-tenant serving platforms.
func ZipfWeights(n int, alpha float64) []float64 {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), alpha)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// TenantMix splits a total arrival rate across n tenants by Zipf weights
// and returns each tenant's RateFn as shape(t) scaled to its share.
// shape must be normalized so that shape(t) is the *total* platform rate;
// each tenant receives weight[i] of it.
func TenantMix(n int, alpha float64, shape RateFn) []RateFn {
	weights := ZipfWeights(n, alpha)
	mix := make([]RateFn, n)
	for i := range mix {
		w := weights[i]
		mix[i] = func(t time.Duration) float64 { return w * shape(t) }
	}
	return mix
}
