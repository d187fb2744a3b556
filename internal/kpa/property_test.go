package kpa

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

// randConfig draws a valid configuration with all knobs exercised. The
// zero-grace path is avoided via MinScale >= 1 where noted by callers.
func randConfig(rng *sim.RNG) Config {
	cfg := Config{
		TargetValue:      rng.Uniform(0.5, 20),
		Tick:             2 * s,
		StableWindow:     60 * s,
		PanicWindow:      time.Duration(1+rng.Intn(30)) * s,
		PanicThreshold:   rng.Uniform(1, 4),
		ScaleToZeroGrace: time.Duration(rng.Intn(60)) * s,
	}
	if rng.Intn(2) == 0 {
		cfg.MaxScaleUpRate = rng.Uniform(1.01, 20)
	}
	if rng.Intn(2) == 0 {
		cfg.MaxScaleDownRate = rng.Uniform(1.01, 20)
	}
	if rng.Intn(2) == 0 {
		cfg.MaxScale = 1 + rng.Intn(50)
	}
	cfg.MinScale = rng.Intn(3)
	if cfg.MaxScale > 0 && cfg.MinScale > cfg.MaxScale {
		cfg.MinScale = cfg.MaxScale
	}
	return cfg
}

// TestKPAPropertyMonotonicInLoad: for any fixed configuration and ready
// count, the recommendation is non-decreasing in the observed load.
func TestKPAPropertyMonotonicInLoad(t *testing.T) {
	rng := sim.NewRNG(1)
	for trial := 0; trial < 300; trial++ {
		cfg := randConfig(rng)
		if cfg.MinScale < 1 {
			cfg.MinScale = 1 // keep the idle-hold path out of a one-shot probe
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("trial %d: invalid random config: %v", trial, err)
		}
		ready := rng.Intn(20)
		lo := rng.Uniform(0, 100)
		hi := lo + rng.Uniform(0, 100)
		probe := func(load float64) int {
			a := MustNew(cfg)
			rec := a.Scale(Snapshot{StableValue: load, PanicValue: load, ReadyPods: ready, Valid: true}, 0)
			if rec.Hold {
				t.Fatalf("trial %d: unexpected hold at load %v (cfg %+v)", trial, load, cfg)
			}
			return rec.Desired
		}
		if dLo, dHi := probe(lo), probe(hi); dLo > dHi {
			t.Fatalf("trial %d: desired(%v)=%d > desired(%v)=%d (cfg %+v, ready %d)",
				trial, lo, dLo, hi, dHi, cfg, ready)
		}
	}
}

// TestKPAPropertyClampIdempotent: applying either clamp twice is the same
// as applying it once, for any configuration and input.
func TestKPAPropertyClampIdempotent(t *testing.T) {
	rng := sim.NewRNG(2)
	for trial := 0; trial < 1000; trial++ {
		cfg := randConfig(rng)
		desired := rng.Intn(200) - 20
		ready := rng.Intn(50)
		once := cfg.clampRates(desired, ready)
		if twice := cfg.clampRates(once, ready); twice != once {
			t.Fatalf("trial %d: clampRates not idempotent: %d -> %d -> %d (cfg %+v, ready %d)",
				trial, desired, once, twice, cfg, ready)
		}
		once = cfg.ClampBounds(desired)
		if twice := cfg.ClampBounds(once); twice != once {
			t.Fatalf("trial %d: ClampBounds not idempotent: %d -> %d -> %d (cfg %+v)",
				trial, desired, once, twice, cfg)
		}
	}
}

// TestKPAPropertyPanicNeverBelowStable: with the delay window out of
// the way, every non-hold recommendation is at least the stable-mode
// recommendation — panic can only raise, never lower.
func TestKPAPropertyPanicNeverBelowStable(t *testing.T) {
	rng := sim.NewRNG(3)
	for trial := 0; trial < 200; trial++ {
		cfg := randConfig(rng)
		cfg.ScaleDownDelay = 0
		if err := cfg.Validate(); err != nil {
			t.Fatalf("trial %d: invalid random config: %v", trial, err)
		}
		a := MustNew(cfg)
		for step := 0; step < 50; step++ {
			now := time.Duration(step) * cfg.Tick
			stable := rng.Uniform(0, 50)
			panicV := rng.Uniform(0, 150) // frequently above stable → panic entries
			ready := rng.Intn(30)
			rec := a.Scale(Snapshot{StableValue: stable, PanicValue: panicV, ReadyPods: ready, Valid: true}, now)
			if rec.Hold {
				continue
			}
			r := ready
			if r < 1 {
				r = 1
			}
			stableOnly := cfg.ClampBounds(cfg.clampRates(int(math.Ceil(stable/cfg.TargetValue)), r))
			if rec.Desired < stableOnly {
				t.Fatalf("trial %d step %d: desired %d below stable-only %d (stable %v panic %v ready %d cfg %+v)",
					trial, step, rec.Desired, stableOnly, stable, panicV, ready, cfg)
			}
		}
	}
}

// seedRef is a verbatim transcription of the pre-refactor autoscalerLoop
// decision math from internal/knative: per-tick sample append, inclusive
// at >= cutoff window membership, desired-pods panic test, windowed exit,
// idle-then-grace scale-to-zero, and scaleTo's Min/Max clamp. It exists
// only to pin the library's default parameterization to the seed.
type seedRef struct {
	tick, stableWindow, panicWindow time.Duration
	panicThreshold                  float64
	grace                           time.Duration
	target                          float64
	minScale, maxScale              int

	samples   []sample
	panicEnd  time.Duration
	idleSince time.Duration
}

func (r *seedRef) windowAvg(inFlight float64, cutoff time.Duration) float64 {
	sum, n := 0.0, 0
	for _, smp := range r.samples {
		if smp.at >= cutoff {
			sum += smp.val
			n++
		}
	}
	if n == 0 {
		return inFlight
	}
	return sum / float64(n)
}

func (r *seedRef) step(now time.Duration, inFlight float64, ready int) (int, bool) {
	r.samples = append(r.samples, sample{at: now, val: inFlight})
	i := 0
	for i < len(r.samples) && r.samples[i].at < now-r.stableWindow {
		i++
	}
	r.samples = r.samples[i:]

	stableAvg := r.windowAvg(inFlight, now-r.stableWindow)
	panicAvg := r.windowAvg(inFlight, now-r.panicWindow)
	desiredStable := int(math.Ceil(stableAvg / r.target))
	desiredPanic := int(math.Ceil(panicAvg / r.target))

	if ready == 0 {
		ready = 1
	}
	if float64(desiredPanic) >= r.panicThreshold*float64(ready) {
		r.panicEnd = now + r.stableWindow
	}
	desired := desiredStable
	if now < r.panicEnd && desiredPanic > desired {
		desired = desiredPanic
	}

	if desired == 0 && r.minScale == 0 {
		if inFlight > 0 || stableAvg > 0 {
			r.idleSince = -1
			return 0, true
		}
		if r.idleSince < 0 {
			r.idleSince = now
			return 0, true
		}
		if now-r.idleSince < r.grace {
			return 0, true
		}
	} else {
		r.idleSince = -1
	}
	if r.maxScale > 0 && desired > r.maxScale {
		desired = r.maxScale
	}
	if desired < r.minScale {
		desired = r.minScale
	}
	return desired, false
}

// TestKPADifferentialSeedCompat drives the library and the transcribed
// seed loop with identical random traffic and asserts the decision
// sequences are identical. This is the in-package half of the seed-compat
// guarantee (the experiment goldens are the end-to-end half).
func TestKPADifferentialSeedCompat(t *testing.T) {
	rng := sim.NewRNG(7)
	for trial := 0; trial < 50; trial++ {
		target := []float64{1, 1, 2, 5}[rng.Intn(4)]
		minScale := rng.Intn(2)
		maxScale := 0
		if rng.Intn(3) == 0 {
			maxScale = 1 + rng.Intn(10)
		}
		if maxScale > 0 && minScale > maxScale {
			minScale = maxScale
		}
		cfg := Config{
			TargetValue:      target,
			Tick:             2 * s,
			StableWindow:     60 * s,
			PanicWindow:      6 * s,
			PanicThreshold:   2,
			ScaleToZeroGrace: 30 * s,
			MinScale:         minScale,
			MaxScale:         maxScale,
		}
		ref := &seedRef{
			tick: cfg.Tick, stableWindow: cfg.StableWindow, panicWindow: cfg.PanicWindow,
			panicThreshold: cfg.PanicThreshold, grace: cfg.ScaleToZeroGrace,
			target: target, minScale: minScale, maxScale: maxScale,
			idleSince: -1,
		}
		agg := NewMetricAggregator(cfg)
		as := MustNew(cfg)

		// Bursty open-loop trace: idle stretches, plateaus, and spikes.
		ready := 1
		level := 0.0
		for step := 1; step <= 400; step++ {
			switch rng.Intn(10) {
			case 0:
				level = 0 // go idle
			case 1, 2:
				level = rng.Uniform(0, 8) // background load
			case 3:
				level = rng.Uniform(20, 80) // flash spike
			}
			inFlight := level
			now := time.Duration(step) * cfg.Tick

			wantDesired, wantHold := ref.step(now, inFlight, ready)

			agg.Record(now, inFlight, 0)
			rec := as.Scale(agg.Snapshot(now, ready), now)

			if rec.Hold != wantHold || (!rec.Hold && rec.Desired != wantDesired) {
				t.Fatalf("trial %d step %d (t=%v, inFlight %v, ready %d): library (%d, hold %v) != seed (%d, hold %v)",
					trial, step, now, inFlight, ready, rec.Desired, rec.Hold, wantDesired, wantHold)
			}
			if !wantHold {
				ready = wantDesired // assume reconcile catches up each tick
			}
		}
	}
}
