// Package kpa implements the Knative pod-autoscaler (KPA) algorithm as a
// pure, deterministic library in the style of libkpa: sliding-window metric
// aggregation over concurrency and request rate, stable vs panic mode with
// threshold entry and windowed exit, scale-up/down rate clamps, a
// scale-down delay window, scale-to-zero grace, and min/max/initial
// bounds.
//
// The package has no dependency on the simulator: time is an explicit
// virtual-clock parameter (time.Duration since simulation start), metric
// observations arrive through a MetricAggregator, and every decision is a
// pure function of (Config, recorded samples, now) plus the Autoscaler's
// own state. Feeding the same observation sequence therefore always yields
// the same recommendation sequence — the determinism contract the
// simulator's byte-identical goldens rely on.
//
// Window averages are uniform. The zero-valued knobs of Config reproduce
// the original minimal autoscaler loop this library replaced (no rate
// clamps, no scale-down delay), which keeps the seed experiments
// byte-identical under the default parameterization. The serving layer's
// one reconcile loop runs on this library.
package kpa

import (
	"errors"
	"fmt"
	"time"
)

// Metric selects which observed signal drives scaling.
type Metric int

const (
	// MetricConcurrency scales on the average number of in-flight requests
	// per pod (knative's default).
	MetricConcurrency Metric = iota
	// MetricRPS scales on the average request rate per pod.
	MetricRPS
)

func (m Metric) String() string {
	switch m {
	case MetricConcurrency:
		return "concurrency"
	case MetricRPS:
		return "rps"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Config is the complete parameter set of one autoscaler instance. The
// documented zero values are all valid and reproduce the seed autoscaler.
type Config struct {
	// TargetValue is the desired per-pod value of the scaling metric
	// (average concurrency or requests/s per pod). Must be positive.
	TargetValue float64
	// ScalingMetric selects concurrency (default) or RPS.
	ScalingMetric Metric

	// Tick is the evaluation cadence: one metric sample is recorded and one
	// decision made per tick. It is also the window bucket granularity.
	Tick time.Duration
	// StableWindow is the stable-mode averaging window.
	StableWindow time.Duration
	// PanicWindow is the panic-mode averaging window. It must not exceed
	// StableWindow (samples are only retained that long); the autoscaler
	// this library replaced silently truncated a wider panic window to the
	// stable window, so Validate rejects the misconfiguration outright.
	PanicWindow time.Duration
	// PanicThreshold enters panic mode when the panic-window desired pod
	// count reaches this multiple of the current ready count. 0 disables
	// panic mode entirely.
	PanicThreshold float64

	// MaxScaleUpRate bounds one decision's scale-up to this multiple of the
	// current ready count (ceil(ready*rate)). 0 means unlimited; any other
	// value must exceed 1.
	MaxScaleUpRate float64
	// MaxScaleDownRate bounds one decision's scale-down to this divisor of
	// the current ready count (floor(ready/rate)). 0 means unlimited; any
	// other value must exceed 1.
	MaxScaleDownRate float64
	// ScaleDownDelay holds a scale-down until desired has stayed low for
	// this long: the recommendation is the max over this trailing window.
	// 0 disables the delay window.
	ScaleDownDelay time.Duration
	// ScaleToZeroGrace is the sustained idle period required before the
	// last pod may be removed. The first all-idle decision always holds
	// (it only starts the idle clock), so even a 0 grace keeps the last pod
	// for one extra tick — exactly the seed loop's behaviour.
	ScaleToZeroGrace time.Duration

	// MinScale is the replica floor (0 allows scale to zero).
	MinScale int
	// MaxScale is the replica ceiling (0 = unbounded).
	MaxScale int
	// InitialScale is the replica count provisioned at deployment; the
	// effective initial count is max(InitialScale, MinScale) (Initial()).
	InitialScale int
}

// Validate checks the configuration, returning an error describing every
// violated constraint.
func (c Config) Validate() error {
	var errs []error
	if c.TargetValue <= 0 {
		errs = append(errs, fmt.Errorf("TargetValue must be positive, got %v", c.TargetValue))
	}
	if c.ScalingMetric != MetricConcurrency && c.ScalingMetric != MetricRPS {
		errs = append(errs, fmt.Errorf("unknown ScalingMetric %d", int(c.ScalingMetric)))
	}
	if c.Tick <= 0 {
		errs = append(errs, fmt.Errorf("Tick must be positive, got %v", c.Tick))
	}
	if c.StableWindow <= 0 {
		errs = append(errs, fmt.Errorf("StableWindow must be positive, got %v", c.StableWindow))
	} else if c.Tick > 0 && c.StableWindow < c.Tick {
		errs = append(errs, fmt.Errorf("StableWindow %v must be at least one Tick %v", c.StableWindow, c.Tick))
	}
	if c.PanicWindow < 0 {
		errs = append(errs, fmt.Errorf("PanicWindow must be >= 0, got %v", c.PanicWindow))
	}
	if c.PanicWindow > c.StableWindow {
		errs = append(errs, fmt.Errorf("PanicWindow %v must not exceed StableWindow %v (samples are retained for the stable window only; a wider panic window would silently average over the stable window)", c.PanicWindow, c.StableWindow))
	}
	if c.PanicThreshold != 0 {
		if c.PanicThreshold < 1 {
			errs = append(errs, fmt.Errorf("PanicThreshold must be >= 1 (or 0 to disable), got %v", c.PanicThreshold))
		}
		if c.PanicWindow <= 0 {
			errs = append(errs, fmt.Errorf("PanicWindow must be positive when PanicThreshold is set, got %v", c.PanicWindow))
		}
	}
	if c.MaxScaleUpRate != 0 && c.MaxScaleUpRate <= 1 {
		errs = append(errs, fmt.Errorf("MaxScaleUpRate must exceed 1 (or 0 for unlimited), got %v", c.MaxScaleUpRate))
	}
	if c.MaxScaleDownRate != 0 && c.MaxScaleDownRate <= 1 {
		errs = append(errs, fmt.Errorf("MaxScaleDownRate must exceed 1 (or 0 for unlimited), got %v", c.MaxScaleDownRate))
	}
	if c.ScaleDownDelay < 0 {
		errs = append(errs, fmt.Errorf("ScaleDownDelay must be >= 0, got %v", c.ScaleDownDelay))
	}
	if c.ScaleToZeroGrace < 0 {
		errs = append(errs, fmt.Errorf("ScaleToZeroGrace must be >= 0, got %v", c.ScaleToZeroGrace))
	}
	if c.MinScale < 0 {
		errs = append(errs, fmt.Errorf("MinScale must be >= 0, got %d", c.MinScale))
	}
	if c.MaxScale < 0 {
		errs = append(errs, fmt.Errorf("MaxScale must be >= 0, got %d", c.MaxScale))
	}
	if c.MaxScale > 0 && c.MaxScale < c.MinScale {
		errs = append(errs, fmt.Errorf("MaxScale %d must be >= MinScale %d", c.MaxScale, c.MinScale))
	}
	if c.InitialScale < 0 {
		errs = append(errs, fmt.Errorf("InitialScale must be >= 0, got %d", c.InitialScale))
	}
	if len(errs) > 0 {
		return fmt.Errorf("kpa: invalid config: %w", errors.Join(errs...))
	}
	return nil
}

// Initial returns the effective deployment-time replica count:
// max(InitialScale, MinScale).
func (c Config) Initial() int {
	if c.MinScale > c.InitialScale {
		return c.MinScale
	}
	return c.InitialScale
}

// Snapshot is one observation of the scaling metric, aggregated over the
// stable and panic windows, plus the current ready replica count, as built
// by MetricAggregator.Snapshot.
type Snapshot struct {
	// StableValue is the metric averaged over the stable window.
	StableValue float64
	// PanicValue is the metric averaged over the panic window.
	PanicValue float64
	// ReadyPods is the current ready replica count.
	ReadyPods int
	// Valid reports whether the windows held any data. Scale holds the
	// current count when false.
	Valid bool
}

// Recommendation is one scaling decision.
type Recommendation struct {
	// Desired is the recommended replica count. Meaningless when Hold.
	Desired int
	// Hold means "keep the current replica count": either the snapshot had
	// no data, or a scale-to-zero is pending its grace period.
	Hold bool
}
