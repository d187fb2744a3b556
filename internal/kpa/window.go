package kpa

import "time"

// sample is one timestamped observation.
type sample struct {
	at  time.Duration
	val float64
}

// window is a sliding time window of timestamped samples. Recording prunes
// samples older than the retention span; reads aggregate over the samples
// at or after an explicit cutoff, so one buffer serves both the stable and
// the panic window (the panic cutoff is simply later). With one sample
// recorded per tick, each sample is one bucket of granularity Tick.
type window struct {
	span    time.Duration
	samples []sample
}

func newWindow(span time.Duration) window {
	return window{span: span}
}

// Record appends one observation at time now and drops samples that have
// aged out of the retention span. Timestamps must be non-decreasing.
func (w *window) Record(now time.Duration, v float64) {
	w.prune(now - w.span)
	w.samples = append(w.samples, sample{at: now, val: v})
}

// prune drops samples strictly older than cutoff. Samples at exactly the
// cutoff stay: the seed autoscaler's window test was `at >= cutoff`, and
// byte-identical goldens depend on that inclusive boundary. The survivors
// move to the front of the same backing array, in order, so a window that
// has reached its span records without allocating.
func (w *window) prune(cutoff time.Duration) {
	i := 0
	for i < len(w.samples) && w.samples[i].at < cutoff {
		i++
	}
	if i > 0 {
		w.samples = w.samples[:copy(w.samples, w.samples[i:])]
	}
}

// Average returns the uniform mean over samples with at >= cutoff, and
// whether any sample was in range (stale or empty windows report false).
func (w *window) Average(cutoff time.Duration) (float64, bool) {
	sum, n := 0.0, 0
	for _, s := range w.samples {
		if s.at >= cutoff {
			sum += s.val
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// Max returns the maximum over samples with at >= cutoff, and whether any
// sample was in range. It backs the scale-down delay window.
func (w *window) Max(cutoff time.Duration) (float64, bool) {
	m, ok := 0.0, false
	for _, s := range w.samples {
		if s.at >= cutoff {
			if !ok || s.val > m {
				m = s.val
			}
			ok = true
		}
	}
	return m, ok
}

// MetricAggregator accumulates per-tick observations of both scaling
// metrics (concurrency and request rate) and produces window-aggregated
// Snapshots for the configured metric. Samples are retained for the stable
// window; the panic value is read from the same buffer with the panic
// cutoff.
type MetricAggregator struct {
	cfg  Config
	conc window
	rps  window
}

// NewMetricAggregator builds an aggregator for a validated Config.
func NewMetricAggregator(cfg Config) *MetricAggregator {
	return &MetricAggregator{
		cfg:  cfg,
		conc: newWindow(cfg.StableWindow),
		rps:  newWindow(cfg.StableWindow),
	}
}

// Record adds one tick's observations: the instantaneous in-flight request
// count and the request rate over the elapsed tick.
func (m *MetricAggregator) Record(now time.Duration, concurrency, rps float64) {
	m.conc.Record(now, concurrency)
	m.rps.Record(now, rps)
}

// Snapshot aggregates the configured metric over the stable and panic
// windows as of now. With panic mode disabled (PanicWindow 0) the panic
// value mirrors the stable value.
func (m *MetricAggregator) Snapshot(now time.Duration, readyPods int) Snapshot {
	w := &m.conc
	if m.cfg.ScalingMetric == MetricRPS {
		w = &m.rps
	}
	stable, okS := w.Average(now - m.cfg.StableWindow)
	panicV, okP := stable, okS
	if m.cfg.PanicWindow > 0 {
		panicV, okP = w.Average(now - m.cfg.PanicWindow)
	}
	return Snapshot{
		StableValue: stable,
		PanicValue:  panicV,
		ReadyPods:   readyPods,
		Valid:       okS && okP,
	}
}
