package kpa

import (
	"strings"
	"testing"
	"time"
)

// defaultConfig is the seed parameterization the simulator deploys by
// default (config.Default's autoscaler block with target 1).
func defaultConfig() Config {
	return Config{
		TargetValue:      1,
		Tick:             2 * s,
		StableWindow:     60 * s,
		PanicWindow:      6 * s,
		PanicThreshold:   2,
		ScaleToZeroGrace: 30 * s,
	}
}

// step is one decision tick fed to the autoscaler: a snapshot plus the
// expected recommendation. Zero want/wantHold fields are still asserted.
type step struct {
	now         time.Duration
	stable      float64
	panicV      float64
	ready       int
	want        int
	wantHold    bool
	wantInPanic bool
}

func runSteps(t *testing.T, a *Autoscaler, steps []step) {
	t.Helper()
	for i, st := range steps {
		rec := a.Scale(Snapshot{StableValue: st.stable, PanicValue: st.panicV, ReadyPods: st.ready, Valid: true}, st.now)
		if rec.Hold != st.wantHold {
			t.Fatalf("step %d (t=%v): Hold = %v, want %v", i, st.now, rec.Hold, st.wantHold)
		}
		if !rec.Hold && rec.Desired != st.want {
			t.Fatalf("step %d (t=%v): Desired = %d, want %d", i, st.now, rec.Desired, st.want)
		}
		if inPanic := a.inPanic(st.now); inPanic != st.wantInPanic {
			t.Fatalf("step %d (t=%v): in panic = %v, want %v", i, st.now, inPanic, st.wantInPanic)
		}
	}
}

// TestKPAScaleBasic is the core ceil(value/target) table with no panic and
// no clamps in play.
func TestKPAScaleBasic(t *testing.T) {
	cases := []struct {
		name   string
		target float64
		stable float64
		ready  int
		want   int
	}{
		{name: "load equal to target keeps one pod", target: 1, stable: 1, ready: 1, want: 1},
		{name: "double the target doubles the pods", target: 1, stable: 2, ready: 1, want: 2},
		{name: "fractional load rounds up", target: 1, stable: 0.01, ready: 1, want: 1},
		{name: "ceil at exact multiples stays exact", target: 2, stable: 8, ready: 4, want: 4},
		{name: "ceil just past a multiple adds a pod", target: 2, stable: 8.001, ready: 4, want: 5},
		{name: "target above one divides load", target: 10, stable: 35, ready: 1, want: 4},
		{name: "large load computes without clamps", target: 1, stable: 1000, ready: 3, want: 1000},
		{name: "zero load wants zero pods", target: 1, stable: 0, ready: 1, want: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := defaultConfig()
			cfg.TargetValue = tc.target
			cfg.PanicThreshold = 0
			cfg.PanicWindow = 0
			cfg.ScaleToZeroGrace = 0
			a := MustNew(cfg)
			rec := a.Scale(Snapshot{StableValue: tc.stable, PanicValue: tc.stable, ReadyPods: tc.ready, Valid: true}, 0)
			// A zero recommendation holds first (idle clock); the second
			// tick releases it (grace 0).
			if tc.want == 0 {
				if !rec.Hold {
					t.Fatalf("first zero decision should hold, got %+v", rec)
				}
				rec = a.Scale(Snapshot{StableValue: tc.stable, PanicValue: tc.stable, ReadyPods: tc.ready, Valid: true}, cfg.Tick)
			}
			if rec.Hold || rec.Desired != tc.want {
				t.Errorf("Scale = %+v, want Desired %d", rec, tc.want)
			}
		})
	}

	t.Run("invalid snapshot holds", func(t *testing.T) {
		a := MustNew(defaultConfig())
		if rec := a.Scale(Snapshot{Valid: false}, 0); !rec.Hold {
			t.Errorf("Scale(invalid) = %+v, want Hold", rec)
		}
	})
}

// TestKPAPanicEnterExit is the panic-mode hysteresis table: threshold
// entry against ready pods, max(stable, panic) while panicking, windowed
// exit StableWindow after the last over-threshold decision, and never
// scaling below stable.
func TestKPAPanicEnterExit(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		steps  []step
	}{
		{name: "burst over threshold enters panic", steps: []step{
			{now: 0, stable: 1, panicV: 1, ready: 1, want: 1},
			// panic desired 4 >= 2×1 ready → panic, recommend the burst.
			{now: 2 * s, stable: 1, panicV: 4, ready: 1, want: 4, wantInPanic: true},
		}},
		{name: "burst below threshold stays stable", steps: []step{
			// panic desired 3 < 2×2 ready → no panic; stable drives.
			{now: 0, stable: 1, panicV: 3, ready: 2, want: 1},
		}},
		{name: "threshold compares desired pods not raw load", steps: []step{
			// load 3.5 → desired 4 = 2×2 ready: entry is >= on the ceil'd
			// desired count, so this enters panic.
			{now: 0, stable: 1, panicV: 3.5, ready: 2, want: 4, wantInPanic: true},
		}},
		{name: "panic takes max of stable and panic", steps: []step{
			{now: 0, stable: 6, panicV: 2, ready: 1, want: 6, wantInPanic: true},
		}},
		{name: "panic persists while under threshold within window", steps: []step{
			{now: 0, stable: 1, panicV: 4, ready: 1, want: 4, wantInPanic: true},
			// panic load gone, but the window keeps panic mode active.
			{now: 2 * s, stable: 1, panicV: 1, ready: 4, want: 1, wantInPanic: true},
		}},
		{name: "panic exits one stable window after entry", steps: []step{
			{now: 0, stable: 1, panicV: 4, ready: 1, want: 4, wantInPanic: true},
			{now: 59 * s, stable: 1, panicV: 1, ready: 4, want: 1, wantInPanic: true},
			{now: 60 * s, stable: 1, panicV: 1, ready: 4, want: 1, wantInPanic: false},
		}},
		{name: "re-trigger extends the panic window", steps: []step{
			{now: 0, stable: 1, panicV: 4, ready: 1, want: 4, wantInPanic: true},
			// over threshold again at 30s: exit moves to 90s.
			{now: 30 * s, stable: 2, panicV: 9, ready: 4, want: 9, wantInPanic: true},
			{now: 89 * s, stable: 1, panicV: 1, ready: 9, want: 1, wantInPanic: true},
			{now: 90 * s, stable: 1, panicV: 1, ready: 9, want: 1, wantInPanic: false},
		}},
		{name: "ready zero clamps to one for the threshold", steps: []step{
			// desired 2 >= 2×max(0,1) → panic from zero.
			{now: 0, stable: 0, panicV: 2, ready: 0, want: 2, wantInPanic: true},
		}},
		{name: "threshold disabled never panics",
			mutate: func(c *Config) { c.PanicThreshold = 0; c.PanicWindow = 0 },
			steps: []step{
				{now: 0, stable: 1, panicV: 50, ready: 1, want: 1},
			}},
		{name: "higher threshold needs a bigger burst",
			mutate: func(c *Config) { c.PanicThreshold = 10 },
			steps: []step{
				{now: 0, stable: 1, panicV: 9, ready: 1, want: 1},
				{now: 2 * s, stable: 1, panicV: 10, ready: 1, want: 10, wantInPanic: true},
			}},
		{name: "panic never recommends below stable during exit decay", steps: []step{
			{now: 0, stable: 5, panicV: 12, ready: 2, want: 12, wantInPanic: true},
			// panic average decays below stable: stable wins the max.
			{now: 2 * s, stable: 5, panicV: 3, ready: 12, want: 5, wantInPanic: true},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := defaultConfig()
			if tc.mutate != nil {
				tc.mutate(&cfg)
			}
			runSteps(t, MustNew(cfg), tc.steps)
		})
	}
}

// TestKPARateClamps is the max-scale-up/down rate table: per-decision
// growth and shrink limits relative to the current ready count.
func TestKPARateClamps(t *testing.T) {
	cases := []struct {
		name    string
		up      float64
		down    float64
		desired int
		ready   int
		want    int
	}{
		{name: "no clamps pass through", up: 0, down: 0, desired: 100, ready: 1, want: 100},
		{name: "up rate caps one decision", up: 2, down: 0, desired: 100, ready: 4, want: 8},
		{name: "up rate ceil rounds fractional caps", up: 2.5, down: 0, desired: 100, ready: 3, want: 8},
		{name: "up rate from zero ready treats ready as one", up: 2, down: 0, desired: 100, ready: 0, want: 2},
		{name: "within up rate untouched", up: 10, down: 0, desired: 5, ready: 1, want: 5},
		{name: "down rate floors one decision", up: 0, down: 2, desired: 0, ready: 8, want: 4},
		{name: "down rate floor rounds toward zero", up: 0, down: 2, desired: 0, ready: 9, want: 4},
		{name: "down rate from one ready allows zero", up: 0, down: 2, desired: 0, ready: 1, want: 0},
		{name: "within down rate untouched", up: 0, down: 10, desired: 7, ready: 8, want: 7},
		{name: "both clamps squeeze from both sides", up: 1.5, down: 1.5, desired: 100, ready: 6, want: 9},
		{name: "both clamps leave in-range desired", up: 2, down: 2, desired: 6, ready: 6, want: 6},
		{name: "scale-down to floor exactly", up: 0, down: 4, desired: 2, ready: 8, want: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := defaultConfig()
			cfg.MaxScaleUpRate = tc.up
			cfg.MaxScaleDownRate = tc.down
			if got := cfg.clampRates(tc.desired, tc.ready); got != tc.want {
				t.Errorf("clampRates(%d, ready %d) = %d, want %d", tc.desired, tc.ready, got, tc.want)
			}
		})
	}

	// End-to-end: a clamped autoscaler walks toward a big burst in rate-
	// limited steps instead of jumping.
	t.Run("clamped walk toward burst", func(t *testing.T) {
		cfg := defaultConfig()
		cfg.PanicThreshold = 0
		cfg.PanicWindow = 0
		cfg.MaxScaleUpRate = 2
		a := MustNew(cfg)
		ready := 1
		var walk []int
		for i := 0; i < 5; i++ {
			rec := a.Scale(Snapshot{StableValue: 40, PanicValue: 40, ReadyPods: ready, Valid: true}, time.Duration(i)*2*s)
			walk = append(walk, rec.Desired)
			ready = rec.Desired // assume reconcile catches up each tick
		}
		want := []int{2, 4, 8, 16, 32}
		for i := range want {
			if walk[i] != want[i] {
				t.Fatalf("clamped walk = %v, want %v", walk, want)
			}
		}
	})
}

// TestKPAScaleToZeroGrace is the idle → zero table: the first zero
// decision starts the idle clock, zero is released only after the grace,
// and any activity resets the clock.
func TestKPAScaleToZeroGrace(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		steps  []step
	}{
		{name: "first idle decision holds", steps: []step{
			{now: 0, stable: 0, panicV: 0, ready: 1, wantHold: true},
		}},
		{name: "idle shorter than grace holds", steps: []step{
			{now: 0, stable: 0, panicV: 0, ready: 1, wantHold: true},
			{now: 2 * s, stable: 0, panicV: 0, ready: 1, wantHold: true},
			{now: 29 * s, stable: 0, panicV: 0, ready: 1, wantHold: true},
		}},
		{name: "idle past grace releases zero", steps: []step{
			{now: 0, stable: 0, panicV: 0, ready: 1, wantHold: true},
			{now: 30 * s, stable: 0, panicV: 0, ready: 1, want: 0},
		}},
		{name: "activity resets the idle clock", steps: []step{
			{now: 0, stable: 0, panicV: 0, ready: 1, wantHold: true},
			{now: 10 * s, stable: 1, panicV: 1, ready: 1, want: 1},
			{now: 12 * s, stable: 0, panicV: 0, ready: 1, wantHold: true},
			{now: 40 * s, stable: 0, panicV: 0, ready: 1, wantHold: true}, // only 28s idle
			{now: 42 * s, stable: 0, panicV: 0, ready: 1, want: 0},
		}},
		{name: "zero grace still holds one decision",
			mutate: func(c *Config) { c.ScaleToZeroGrace = 0 },
			steps: []step{
				{now: 0, stable: 0, panicV: 0, ready: 1, wantHold: true},
				{now: 2 * s, stable: 0, panicV: 0, ready: 1, want: 0},
			}},
		{name: "min scale never reaches the grace path",
			mutate: func(c *Config) { c.MinScale = 1 },
			steps: []step{
				{now: 0, stable: 0, panicV: 0, ready: 1, want: 1},
				{now: 2 * s, stable: 0, panicV: 0, ready: 1, want: 1},
			}},
		{name: "grace released at exact boundary", steps: []step{
			{now: 0, stable: 0, panicV: 0, ready: 1, wantHold: true},
			{now: 29*s + 999*time.Millisecond, stable: 0, panicV: 0, ready: 1, wantHold: true},
			{now: 30 * s, stable: 0, panicV: 0, ready: 1, want: 0},
		}},
		{name: "scale-down delay defers the idle clock",
			mutate: func(c *Config) { c.ScaleDownDelay = 20 * s },
			steps: []step{
				{now: 0, stable: 3, panicV: 3, ready: 3, want: 3},
				// raw desired 0, but the delay window max keeps 3 alive:
				// not idle, clock not started.
				{now: 10 * s, stable: 0, panicV: 0, ready: 3, want: 3},
				// delay expired → desired 0 → idle clock starts now.
				{now: 22 * s, stable: 0, panicV: 0, ready: 3, wantHold: true},
				{now: 51 * s, stable: 0, panicV: 0, ready: 3, wantHold: true},
				{now: 52 * s, stable: 0, panicV: 0, ready: 3, want: 0},
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := defaultConfig()
			if tc.mutate != nil {
				tc.mutate(&cfg)
			}
			runSteps(t, MustNew(cfg), tc.steps)
		})
	}
}

// TestKPABounds is the min/max/initial bounds table.
func TestKPABounds(t *testing.T) {
	t.Run("ClampBounds", func(t *testing.T) {
		cases := []struct {
			name     string
			min, max int
			desired  int
			want     int
		}{
			{name: "unbounded passes through", desired: 500, want: 500},
			{name: "max caps", max: 10, desired: 500, want: 10},
			{name: "max equal passes", max: 10, desired: 10, want: 10},
			{name: "min floors", min: 3, desired: 1, want: 3},
			{name: "min floors zero", min: 2, desired: 0, want: 2},
			{name: "within bounds untouched", min: 2, max: 10, desired: 5, want: 5},
			{name: "zero max means unbounded", min: 1, max: 0, desired: 99, want: 99},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				cfg := defaultConfig()
				cfg.MinScale, cfg.MaxScale = tc.min, tc.max
				if got := cfg.ClampBounds(tc.desired); got != tc.want {
					t.Errorf("ClampBounds(%d) = %d, want %d", tc.desired, got, tc.want)
				}
			})
		}
	})

	t.Run("Initial", func(t *testing.T) {
		cases := []struct {
			name         string
			min, initial int
			want         int
		}{
			{name: "initial alone", initial: 3, want: 3},
			{name: "min floors initial", min: 2, initial: 0, want: 2},
			{name: "initial above min wins", min: 2, initial: 5, want: 5},
			{name: "both zero deploys nothing", want: 0},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				cfg := defaultConfig()
				cfg.MinScale, cfg.InitialScale = tc.min, tc.initial
				if got := cfg.Initial(); got != tc.want {
					t.Errorf("Initial() = %d, want %d", got, tc.want)
				}
			})
		}
	})
}

// TestKPAScaleDownDelay is the delay-window table: scale-ups pass through,
// scale-downs wait out the trailing max.
func TestKPAScaleDownDelay(t *testing.T) {
	cases := []struct {
		name   string
		delay  time.Duration
		steps  []step
		mutate func(*Config)
	}{
		{name: "scale-up passes through the delay window", delay: 30 * s, steps: []step{
			{now: 0, stable: 2, panicV: 2, ready: 2, want: 2},
			{now: 2 * s, stable: 8, panicV: 8, ready: 2, want: 8, wantInPanic: true},
		}},
		{name: "scale-down held at the old peak within the delay", delay: 30 * s, steps: []step{
			{now: 0, stable: 8, panicV: 8, ready: 8, want: 8},
			{now: 10 * s, stable: 2, panicV: 2, ready: 8, want: 8},
			{now: 29 * s, stable: 2, panicV: 2, ready: 8, want: 8},
		}},
		{name: "scale-down released after the delay", delay: 30 * s, steps: []step{
			{now: 0, stable: 8, panicV: 8, ready: 8, want: 8},
			{now: 31 * s, stable: 2, panicV: 2, ready: 8, want: 2},
		}},
		{name: "no delay scales down immediately", delay: 0, steps: []step{
			{now: 0, stable: 8, panicV: 8, ready: 8, want: 8},
			{now: 2 * s, stable: 2, panicV: 2, ready: 8, want: 2},
		}},
		{name: "second peak inside the delay re-arms it", delay: 30 * s, steps: []step{
			{now: 0, stable: 8, panicV: 8, ready: 8, want: 8},
			{now: 20 * s, stable: 6, panicV: 6, ready: 8, want: 8},
			// 8 has aged out at 31s, but the 6 at 20s still holds.
			{now: 31 * s, stable: 2, panicV: 2, ready: 8, want: 6},
			{now: 51 * s, stable: 2, panicV: 2, ready: 6, want: 2},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := defaultConfig()
			cfg.ScaleDownDelay = tc.delay
			if tc.mutate != nil {
				tc.mutate(&cfg)
			}
			runSteps(t, MustNew(cfg), tc.steps)
		})
	}
}

// TestKPAConfigValidate is the validation table, one case per constraint.
func TestKPAConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string // empty = valid
	}{
		{name: "default config valid", mutate: func(c *Config) {}},
		{name: "zero target invalid", mutate: func(c *Config) { c.TargetValue = 0 }, wantErr: "TargetValue"},
		{name: "negative target invalid", mutate: func(c *Config) { c.TargetValue = -1 }, wantErr: "TargetValue"},
		{name: "zero tick invalid", mutate: func(c *Config) { c.Tick = 0 }, wantErr: "Tick"},
		{name: "zero stable window invalid", mutate: func(c *Config) { c.StableWindow = 0 }, wantErr: "StableWindow"},
		{name: "stable window under one tick invalid", mutate: func(c *Config) { c.StableWindow = s }, wantErr: "StableWindow"},
		{name: "panic window wider than stable invalid",
			mutate: func(c *Config) { c.PanicWindow = 2 * c.StableWindow }, wantErr: "PanicWindow"},
		{name: "panic threshold below one invalid",
			mutate: func(c *Config) { c.PanicThreshold = 0.5 }, wantErr: "PanicThreshold"},
		{name: "panic threshold without window invalid",
			mutate: func(c *Config) { c.PanicWindow = 0 }, wantErr: "PanicWindow"},
		{name: "panic fully disabled valid",
			mutate: func(c *Config) { c.PanicThreshold = 0; c.PanicWindow = 0 }},
		{name: "up rate of one invalid", mutate: func(c *Config) { c.MaxScaleUpRate = 1 }, wantErr: "MaxScaleUpRate"},
		{name: "down rate of one invalid", mutate: func(c *Config) { c.MaxScaleDownRate = 1 }, wantErr: "MaxScaleDownRate"},
		{name: "rates above one valid", mutate: func(c *Config) { c.MaxScaleUpRate = 1000; c.MaxScaleDownRate = 2 }},
		{name: "negative grace invalid", mutate: func(c *Config) { c.ScaleToZeroGrace = -s }, wantErr: "ScaleToZeroGrace"},
		{name: "negative delay invalid", mutate: func(c *Config) { c.ScaleDownDelay = -s }, wantErr: "ScaleDownDelay"},
		{name: "negative min invalid", mutate: func(c *Config) { c.MinScale = -1 }, wantErr: "MinScale"},
		{name: "max below min invalid", mutate: func(c *Config) { c.MinScale = 5; c.MaxScale = 3 }, wantErr: "MaxScale"},
		{name: "max equal min valid", mutate: func(c *Config) { c.MinScale = 3; c.MaxScale = 3 }},
		{name: "negative initial invalid", mutate: func(c *Config) { c.InitialScale = -1 }, wantErr: "InitialScale"},
		{name: "unknown metric invalid", mutate: func(c *Config) { c.ScalingMetric = Metric(42) }, wantErr: "ScalingMetric"},
		{name: "multiple violations all reported",
			mutate:  func(c *Config) { c.TargetValue = 0; c.Tick = 0 },
			wantErr: "Tick"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := defaultConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error mentioning %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Validate() = %v, want mention of %q", err, tc.wantErr)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Error("MustNew accepted an invalid config")
					}
				}()
				MustNew(cfg)
			}()
		})
	}
}
