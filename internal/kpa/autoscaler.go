package kpa

import (
	"math"
	"time"
)

// Autoscaler computes replica recommendations from metric snapshots. It is
// deterministic: its only state is the panic-exit time, the idle-since mark
// for scale-to-zero, and the scale-down delay window, all driven purely by
// the (snapshot, now) sequence fed to Scale.
type Autoscaler struct {
	cfg Config

	// panicEnd is the virtual time panic mode expires; it is pushed out to
	// now+StableWindow by every over-threshold decision (windowed exit).
	panicEnd time.Duration
	// idleSince marks the first decision that wanted zero replicas; -1
	// while the service is non-idle.
	idleSince time.Duration
	// delay is the trailing max window of desired counts backing
	// ScaleDownDelay; unused (zero span) when the delay is disabled.
	delay window
}

// MustNew builds an autoscaler for a configuration known to be valid; it
// panics with Validate's error otherwise.
func MustNew(cfg Config) *Autoscaler {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Autoscaler{
		cfg:       cfg,
		idleSince: -1,
		delay:     newWindow(cfg.ScaleDownDelay),
	}
}

// inPanic reports whether panic mode is active as of now.
func (a *Autoscaler) inPanic(now time.Duration) bool {
	return a.cfg.PanicThreshold > 0 && now < a.panicEnd
}

// clampRates applies the scale-up/down rate clamps to a desired count
// relative to the given ready count: one decision may grow the fleet to at
// most ceil(ready*MaxScaleUpRate) and shrink it to at least
// floor(ready/MaxScaleDownRate). Ready counts below 1 clamp as 1 so a
// scaled-to-zero service can still activate. The operation is idempotent
// for a fixed ready count.
func (c Config) clampRates(desired, ready int) int {
	if ready < 1 {
		ready = 1
	}
	if c.MaxScaleUpRate > 1 {
		if up := int(math.Ceil(float64(ready) * c.MaxScaleUpRate)); desired > up {
			desired = up
		}
	}
	if c.MaxScaleDownRate > 1 {
		if down := int(math.Floor(float64(ready) / c.MaxScaleDownRate)); desired < down {
			desired = down
		}
	}
	return desired
}

// ClampBounds applies the MinScale/MaxScale bounds to a desired count. The
// operation is idempotent.
func (c Config) ClampBounds(desired int) int {
	if c.MaxScale > 0 && desired > c.MaxScale {
		desired = c.MaxScale
	}
	if desired < c.MinScale {
		desired = c.MinScale
	}
	return desired
}

// Scale makes one scaling decision as of now. The decision pipeline, in
// order:
//
//  1. desired pod counts: ceil(value/target) over the stable and the panic
//     window, each rate-clamped against the current ready count;
//  2. panic entry: the panic-window desired count reaching
//     PanicThreshold × ready pushes the panic exit out to now+StableWindow;
//     while panicking the recommendation is max(stable, panic), so panic
//     never recommends below stable;
//  3. scale-down delay: the recommendation is the max over the trailing
//     ScaleDownDelay window, so scale-ups pass through immediately and
//     scale-downs wait out the delay;
//  4. bounds: MinScale/MaxScale clamp;
//  5. scale-to-zero grace: the first zero recommendation only starts the
//     idle clock (Hold), and zero is released only after the service has
//     stayed idle for ScaleToZeroGrace.
func (a *Autoscaler) Scale(snap Snapshot, now time.Duration) Recommendation {
	if !snap.Valid {
		return Recommendation{Hold: true}
	}
	ready := snap.ReadyPods
	if ready < 1 {
		ready = 1
	}
	desiredStable := a.cfg.clampRates(int(math.Ceil(snap.StableValue/a.cfg.TargetValue)), ready)
	desiredPanic := a.cfg.clampRates(int(math.Ceil(snap.PanicValue/a.cfg.TargetValue)), ready)

	if a.cfg.PanicThreshold > 0 && float64(desiredPanic) >= a.cfg.PanicThreshold*float64(ready) {
		a.panicEnd = now + a.cfg.StableWindow
	}
	desired := desiredStable
	if a.inPanic(now) && desiredPanic > desired {
		desired = desiredPanic
	}

	if a.cfg.ScaleDownDelay > 0 {
		a.delay.Record(now, float64(desired))
		if m, ok := a.delay.Max(now - a.cfg.ScaleDownDelay); ok && int(m) > desired {
			desired = int(m)
		}
	}

	desired = a.cfg.ClampBounds(desired)

	if desired == 0 && a.cfg.MinScale == 0 {
		if a.idleSince < 0 {
			a.idleSince = now
			return Recommendation{Hold: true}
		}
		if now-a.idleSince < a.cfg.ScaleToZeroGrace {
			return Recommendation{Hold: true}
		}
	} else {
		a.idleSince = -1
	}
	return Recommendation{Desired: desired}
}
