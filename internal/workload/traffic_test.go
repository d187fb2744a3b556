package workload

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

// flat is a constant arrival rate.
func flat(rps float64) RateFn { return func(time.Duration) float64 { return rps } }

func TestOpenLoopConstantRateCount(t *testing.T) {
	rng := sim.NewRNG(42)
	rate := flat(50)
	var n int
	var last time.Duration
	OpenLoop(rng, rate, 50, 100*time.Second, func(at time.Duration) bool {
		if at < last {
			t.Fatalf("arrivals out of order: %v after %v", at, last)
		}
		last = at
		n++
		return true
	})
	// 50 rps × 100 s = 5000 expected; Poisson σ ≈ 71, allow ±5σ.
	if n < 4650 || n > 5350 {
		t.Errorf("arrivals = %d, want ≈5000", n)
	}
}

func TestOpenLoopDeterministic(t *testing.T) {
	collect := func() []time.Duration {
		rng := sim.NewRNG(7)
		var out []time.Duration
		OpenLoop(rng, flat(10), 10, 10*time.Second, func(at time.Duration) bool {
			out = append(out, at)
			return true
		})
		return out
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestOpenLoopThinningTracksRate(t *testing.T) {
	// A rate that is zero for the first half and 40 rps for the second:
	// thinning must put (almost) all arrivals in the second half.
	rate := func(t time.Duration) float64 {
		if t < 50*time.Second {
			return 0
		}
		return 40
	}
	rng := sim.NewRNG(3)
	first, second := 0, 0
	OpenLoop(rng, rate, 40, 100*time.Second, func(at time.Duration) bool {
		if at < 50*time.Second {
			first++
		} else {
			second++
		}
		return true
	})
	if first != 0 {
		t.Errorf("arrivals in zero-rate half = %d, want 0", first)
	}
	if second < 1700 || second > 2300 {
		t.Errorf("arrivals in active half = %d, want ≈2000", second)
	}
}

func TestOpenLoopEarlyStop(t *testing.T) {
	rng := sim.NewRNG(1)
	n := 0
	OpenLoop(rng, flat(100), 100, time.Hour, func(time.Duration) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Errorf("early stop delivered %d arrivals, want 10", n)
	}
}

func TestDiurnalRateBounds(t *testing.T) {
	r := DiurnalRate(10, 0.5, time.Hour)
	min, max := math.Inf(1), math.Inf(-1)
	for t := time.Duration(0); t < time.Hour; t += time.Second {
		v := r(t)
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	if min < 5-1e-6 || max > 15+1e-6 {
		t.Errorf("diurnal range [%v, %v], want within [5, 15]", min, max)
	}
	if max-15 < -0.1 || min-5 > 0.1 {
		// the sampled extremes should actually reach the bounds
		t.Errorf("diurnal range [%v, %v] does not span [5, 15]", min, max)
	}
}

func TestFlashCrowdWindow(t *testing.T) {
	r := FlashCrowd(flat(4), 10*time.Second, 5*time.Second, 10)
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 4},
		{10 * time.Second, 40},
		{14 * time.Second, 40},
		{15 * time.Second, 4},
	}
	for _, tc := range cases {
		if got := r(tc.at); got != tc.want {
			t.Errorf("rate(%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
}

func TestZipfWeights(t *testing.T) {
	w := ZipfWeights(5, 1)
	sum := 0.0
	for i, v := range w {
		sum += v
		if i > 0 && v > w[i-1] {
			t.Errorf("weights not non-increasing at %d: %v", i, w)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v, want 1", sum)
	}
	// alpha 0 is uniform
	u := ZipfWeights(4, 0)
	for _, v := range u {
		if math.Abs(v-0.25) > 1e-9 {
			t.Errorf("uniform weights = %v, want all 0.25", u)
		}
	}
}

func TestTenantMixConservesRate(t *testing.T) {
	mix := TenantMix(10, 1.2, flat(100))
	total := 0.0
	for _, r := range mix {
		total += r(0)
	}
	if math.Abs(total-100) > 1e-9 {
		t.Errorf("tenant rates sum to %v, want 100", total)
	}
}
