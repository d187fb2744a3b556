package kpa

import (
	"math"
	"testing"
	"time"
)

const s = time.Second

// rec is one timestamped observation fed to a window or aggregator.
type rec struct {
	at  time.Duration
	val float64
}

func feed(w *window, recs []rec) {
	for _, r := range recs {
		w.Record(r.at, r.val)
	}
}

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestKPAWindowAverage is the uniform (linear) aggregation table: one case
// per boundary condition of the bucketed sliding window.
func TestKPAWindowAverage(t *testing.T) {
	cases := []struct {
		name   string
		span   time.Duration
		recs   []rec
		cutoff time.Duration
		want   float64
		ok     bool
	}{
		{name: "empty window has no average", span: 60 * s, recs: nil, cutoff: 0, ok: false},
		{name: "single sample is its own average", span: 60 * s,
			recs: []rec{{10 * s, 4}}, cutoff: 0, want: 4, ok: true},
		{name: "uniform weights across samples", span: 60 * s,
			recs: []rec{{2 * s, 1}, {4 * s, 2}, {6 * s, 9}}, cutoff: 0, want: 4, ok: true},
		{name: "partial window averages what exists", span: 60 * s,
			recs: []rec{{2 * s, 10}, {4 * s, 20}}, cutoff: 0, want: 15, ok: true},
		{name: "sample exactly at cutoff is included", span: 60 * s,
			recs: []rec{{10 * s, 100}, {20 * s, 50}}, cutoff: 10 * s, want: 75, ok: true},
		{name: "sample before cutoff is excluded", span: 60 * s,
			recs: []rec{{9*s + 999*time.Millisecond, 100}, {20 * s, 50}}, cutoff: 10 * s, want: 50, ok: true},
		{name: "cutoff past every sample is stale", span: 60 * s,
			recs: []rec{{2 * s, 1}, {4 * s, 2}}, cutoff: 30 * s, ok: false},
		{name: "zero samples average to zero not missing", span: 60 * s,
			recs: []rec{{2 * s, 0}, {4 * s, 0}}, cutoff: 0, want: 0, ok: true},
		{name: "stale buckets pruned by retention span", span: 10 * s,
			recs:   []rec{{0, 1000}, {5 * s, 1000}, {20 * s, 2}, {22 * s, 4}},
			cutoff: 0, want: 3, ok: true}, // recording at 20s pruned <10s
		{name: "sample aged exactly span survives pruning", span: 10 * s,
			recs: []rec{{5 * s, 6}, {15 * s, 12}}, cutoff: 0, want: 9, ok: true},
		{name: "narrower cutoff over same buffer", span: 60 * s,
			recs: []rec{{50 * s, 1}, {55 * s, 2}, {60 * s, 6}}, cutoff: 54 * s, want: 4, ok: true},
		{name: "negative values average", span: 60 * s,
			recs: []rec{{1 * s, -2}, {2 * s, 2}}, cutoff: 0, want: 0, ok: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newWindow(tc.span)
			feed(&w, tc.recs)
			got, ok := w.Average(tc.cutoff)
			if ok != tc.ok {
				t.Fatalf("Average ok = %v, want %v", ok, tc.ok)
			}
			if ok && !almostEq(got, tc.want) {
				t.Errorf("Average = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestKPAWindowMax is the trailing-max table backing the scale-down delay.
func TestKPAWindowMax(t *testing.T) {
	cases := []struct {
		name   string
		span   time.Duration
		recs   []rec
		cutoff time.Duration
		want   float64
		ok     bool
	}{
		{name: "empty window has no max", span: 30 * s, recs: nil, cutoff: 0, ok: false},
		{name: "single sample is the max", span: 30 * s,
			recs: []rec{{1 * s, 5}}, cutoff: 0, want: 5, ok: true},
		{name: "max over mixed values", span: 30 * s,
			recs: []rec{{1 * s, 2}, {2 * s, 9}, {3 * s, 4}}, cutoff: 0, want: 9, ok: true},
		{name: "cutoff drops the old peak", span: 60 * s,
			recs: []rec{{1 * s, 9}, {20 * s, 4}}, cutoff: 10 * s, want: 4, ok: true},
		{name: "retention span drops the old peak on record", span: 10 * s,
			recs: []rec{{0, 9}, {20 * s, 4}}, cutoff: 0, want: 4, ok: true},
		{name: "zero peak is a valid max", span: 30 * s,
			recs: []rec{{1 * s, 0}, {2 * s, 0}}, cutoff: 0, want: 0, ok: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newWindow(tc.span)
			feed(&w, tc.recs)
			got, ok := w.Max(tc.cutoff)
			if ok != tc.ok {
				t.Fatalf("Max ok = %v, want %v", ok, tc.ok)
			}
			if ok && !almostEq(got, tc.want) {
				t.Errorf("Max = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestKPAMetricAggregator covers the two-metric aggregation and snapshot
// assembly: metric selection, stable vs panic cutoffs, staleness.
func TestKPAMetricAggregator(t *testing.T) {
	base := Config{
		TargetValue:    1,
		Tick:           2 * s,
		StableWindow:   60 * s,
		PanicWindow:    6 * s,
		PanicThreshold: 2,
	}
	type obs struct {
		at        time.Duration
		conc, rps float64
	}
	cases := []struct {
		name       string
		mutate     func(*Config)
		obs        []obs
		now        time.Duration
		ready      int
		wantStable float64
		wantPanic  float64
		wantValid  bool
	}{
		{name: "no observations yield invalid snapshot",
			obs: nil, now: 10 * s, ready: 1, wantValid: false},
		{name: "concurrency metric selected by default",
			obs: []obs{{2 * s, 4, 100}, {4 * s, 8, 100}}, now: 4 * s, ready: 1,
			wantStable: 6, wantPanic: 6, wantValid: true},
		{name: "rps metric selected by config",
			mutate: func(c *Config) { c.ScalingMetric = MetricRPS },
			obs:    []obs{{2 * s, 100, 4}, {4 * s, 100, 8}}, now: 4 * s, ready: 1,
			wantStable: 6, wantPanic: 6, wantValid: true},
		{name: "panic window sees only recent samples",
			// stable window holds all four, panic window (6s) only the
			// last two at now=60s: cutoff 54s keeps 56s and 60s.
			obs: []obs{{50 * s, 1, 0}, {52 * s, 1, 0}, {56 * s, 7, 0}, {60 * s, 9, 0}},
			now: 60 * s, ready: 1, wantStable: 4.5, wantPanic: 8, wantValid: true},
		{name: "panic disabled mirrors stable value",
			mutate: func(c *Config) { c.PanicWindow = 0; c.PanicThreshold = 0 },
			obs:    []obs{{50 * s, 2, 0}, {60 * s, 4, 0}},
			now:    60 * s, ready: 3, wantStable: 3, wantPanic: 3, wantValid: true},
		{name: "panic window stale while stable is fresh is invalid",
			// last sample 10s old: inside the 60s stable window, outside
			// the 6s panic window → the snapshot as a whole is not valid.
			obs: []obs{{50 * s, 2, 0}},
			now: 60 * s, ready: 1, wantValid: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			if tc.mutate != nil {
				tc.mutate(&cfg)
			}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("config invalid: %v", err)
			}
			agg := NewMetricAggregator(cfg)
			for _, o := range tc.obs {
				agg.Record(o.at, o.conc, o.rps)
			}
			snap := agg.Snapshot(tc.now, tc.ready)
			if snap.Valid != tc.wantValid {
				t.Fatalf("Valid = %v, want %v", snap.Valid, tc.wantValid)
			}
			if !snap.Valid {
				return
			}
			if !almostEq(snap.StableValue, tc.wantStable) {
				t.Errorf("StableValue = %v, want %v", snap.StableValue, tc.wantStable)
			}
			if !almostEq(snap.PanicValue, tc.wantPanic) {
				t.Errorf("PanicValue = %v, want %v", snap.PanicValue, tc.wantPanic)
			}
			if snap.ReadyPods != tc.ready {
				t.Errorf("ReadyPods = %d, want %d", snap.ReadyPods, tc.ready)
			}
		})
	}
}

// TestMetricAggregatorRecordAllocatesNothing: once both windows have filled
// their stable span, a tick's Record reuses the windows' storage.
func TestMetricAggregatorRecordAllocatesNothing(t *testing.T) {
	cfg := Config{TargetValue: 1, Tick: 2 * s, StableWindow: 60 * s, PanicWindow: 6 * s, PanicThreshold: 2}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	agg := NewMetricAggregator(cfg)
	now := time.Duration(0)
	tick := func() {
		now += cfg.Tick
		agg.Record(now, 3, 1.5)
	}
	for now < 2*cfg.StableWindow {
		tick()
	}
	// One run is 1000 ticks, so an occasional regrowth cannot round to 0.
	allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < 1000; i++ {
			tick()
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per 1000 steady-state Records, want 0", allocs)
	}
	if n := len(agg.conc.samples); n != int(cfg.StableWindow/cfg.Tick)+1 {
		t.Errorf("window holds %d samples, want %d", n, cfg.StableWindow/cfg.Tick+1)
	}
}
