package sim

import (
	"testing"
	"time"
)

// TestTimerStopAfterFire is the regression test for Stop's contract: once
// the event has fired, Stop must report false. The fired struct is recycled
// by the kernel (generation bump), which is what a stale handle observes.
// fluid.reschedule relies on this answer when it rearms its completion
// timer.
func TestTimerStopAfterFire(t *testing.T) {
	env := NewEnv(1)
	fired := 0
	tm := env.After(time.Second, func() { fired++ })
	env.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if tm.Stop() {
		t.Error("Stop returned true after the event fired")
	}
	if tm.Stop() {
		t.Error("repeated Stop after fire returned true")
	}
}

// TestTimerStopInsideOwnCallback: a callback stopping its own timer is
// "after fired" by definition.
func TestTimerStopInsideOwnCallback(t *testing.T) {
	env := NewEnv(1)
	var tm Timer
	var got bool
	tm = env.After(time.Second, func() { got = tm.Stop() })
	env.Run()
	if got {
		t.Error("Stop from inside the firing callback returned true")
	}
}

// TestTimerStopAfterRecycle arms a timer, lets it fire, schedules another
// event so the recycled struct is reused, and checks the stale handle
// still reports false and cannot cancel the unrelated new event.
func TestTimerStopAfterRecycle(t *testing.T) {
	env := NewEnv(1)
	stale := env.After(time.Millisecond, func() {})
	env.Run()
	fired := false
	env.After(time.Millisecond, func() { fired = true }) // reuses the freed struct
	if stale.Stop() {
		t.Error("stale handle Stop returned true after recycle")
	}
	env.Run()
	if !fired {
		t.Error("stale handle cancelled an unrelated recycled event")
	}
}

// TestZeroTimerStop: the zero Timer is inert.
func TestZeroTimerStop(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Error("zero Timer Stop returned true")
	}
}

// TestCancelledCompaction floods the queue with cancelled timers and checks
// that eager compaction keeps the heap from bloating and that exactly the
// survivors fire, in a time order that never runs backwards.
func TestCancelledCompaction(t *testing.T) {
	env := NewEnv(1)
	rng := NewRNG(7)
	want := 0
	fired := 0
	last := time.Duration(-1)
	for i := 0; i < 4096; i++ {
		at := time.Duration(1+rng.Intn(1_000_000)) * time.Microsecond
		tm := env.At(at, func() {
			fired++
			if env.Now() < last {
				t.Fatalf("time ran backwards: %v after %v", env.Now(), last)
			}
			last = env.Now()
		})
		if rng.Float64() < 0.9 {
			if !tm.Stop() {
				t.Fatal("Stop of pending timer returned false")
			}
		} else {
			want++
		}
	}
	// With ~90% cancelled, eager compaction must have collected most of
	// them already instead of leaving them buried until Run.
	if len(env.events) > 2*want+64 {
		t.Errorf("queue not compacted: %d events buried for %d survivors", len(env.events), want)
	}
	if env.Stats().Compactions == 0 {
		t.Error("no compaction ran under a 90% cancellation load")
	}
	env.Run()
	if fired != want {
		t.Errorf("fired = %d, want %d", fired, want)
	}
	if len(env.events) != 0 || env.ncancel != 0 {
		t.Errorf("accounting after run: queued=%d ncancel=%d, want 0, 0", len(env.events), env.ncancel)
	}
}

// TestNoSpuriousCompactionArmCancelPop is the regression test for the
// cancellation-accounting bug class: every lazy drop at the heap top must
// decrement ncancel. If a path forgets, the
// counter only ever grows under an arm-cancel-pop loop and eventually
// crosses the compaction trigger on an essentially empty queue — the
// kernel then compacts on every cancellation, forever. With exact
// accounting the counter returns to zero each iteration and no compaction
// ever runs.
func TestNoSpuriousCompactionArmCancelPop(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		env := NewEnv(1)
		for i := 0; i < 10_000; i++ {
			tm := env.After(time.Millisecond, func() { t.Error("cancelled timer fired") })
			if !tm.Stop() {
				t.Fatal("Stop of pending timer returned false")
			}
			env.RunFor(2 * time.Millisecond)
		}
		if env.Stats().Compactions != 0 {
			t.Errorf("compactions = %d under arm-cancel-pop, want 0", env.Stats().Compactions)
		}
		if env.ncancel != 0 || len(env.events) != 0 {
			t.Errorf("leaked accounting: ncancel=%d queued=%d", env.ncancel, len(env.events))
		}
	})
	t.Run("wheel", func(t *testing.T) {
		env := NewEnv(1)
		for i := 0; i < 10_000; i++ {
			// A far timer, each RunFor slice ending past it.
			tm := env.After(200*time.Millisecond, func() { t.Error("cancelled timer fired") })
			if !tm.Stop() {
				t.Fatal("Stop of pending timer returned false")
			}
			env.RunFor(300 * time.Millisecond)
		}
		if env.Stats().Compactions != 0 {
			t.Errorf("compactions = %d under arm-cancel-pop, want 0", env.Stats().Compactions)
		}
		if env.ncancel != 0 || len(env.events) != 0 {
			t.Errorf("leaked accounting: ncancel=%d queued=%d", env.ncancel, len(env.events))
		}
	})
}

// TestWheelLongIdleJump: a single event hours out with nothing in between
// fires exactly at its timestamp.
func TestWheelLongIdleJump(t *testing.T) {
	env := NewEnv(1)
	fired := time.Duration(-1)
	env.At(7*time.Hour+13*time.Millisecond, func() { fired = env.Now() })
	env.Run()
	if want := 7*time.Hour + 13*time.Millisecond; fired != want {
		t.Errorf("fired at %v, want %v", fired, want)
	}
}

// TestWheelRunUntilHorizon: RunUntil must stop at the horizon with a far
// event still pending, keep Now exact, and resume correctly.
func TestWheelRunUntilHorizon(t *testing.T) {
	env := NewEnv(1)
	fired := false
	env.At(10*time.Second, func() { fired = true })
	env.RunUntil(3 * time.Second)
	if fired {
		t.Fatal("event fired before its time")
	}
	if env.Now() != 3*time.Second {
		t.Fatalf("Now = %v after horizon stop, want 3s", env.Now())
	}
	env.RunUntil(10 * time.Second) // events at exactly t still fire
	if !fired {
		t.Fatal("event at the horizon boundary did not fire")
	}
}

// TestWheelCancelledLazyDrop: a cancelled far timer is released when it
// surfaces at the heap top and the accounting drains to zero — cancelled
// events must not survive as phantom ncancel weight (the
// spurious-compaction bug class).
func TestWheelCancelledLazyDrop(t *testing.T) {
	env := NewEnv(1)
	fired := 0
	tm := env.At(500*time.Millisecond, func() { fired++ })
	env.At(600*time.Millisecond, func() {}) // keeps the run going past the cancel
	if !tm.Stop() {
		t.Fatal("Stop of pending far timer returned false")
	}
	if env.ncancel != 1 {
		t.Fatalf("ncancel = %d after Stop, want 1", env.ncancel)
	}
	env.Run()
	if fired != 0 {
		t.Error("cancelled far timer fired")
	}
	if env.ncancel != 0 || len(env.events) != 0 {
		t.Errorf("accounting after drain: ncancel=%d queued=%d, want 0, 0", env.ncancel, len(env.events))
	}
}

// TestWheelStopSemanticsAcrossPromotion: a Timer handle stays valid while
// the clock runs up to just before its event, and goes stale (Stop ==
// false) once it fires.
func TestWheelStopSemanticsAcrossPromotion(t *testing.T) {
	env := NewEnv(1)
	fired := 0
	tm := env.At(300*time.Millisecond, func() { fired++ })
	env.RunUntil(299 * time.Millisecond)
	if !tm.Stop() {
		t.Fatal("Stop of a pending timer returned false")
	}
	env.Run()
	if fired != 0 {
		t.Error("stopped timer fired")
	}
	tm2 := env.At(env.Now()+200*time.Millisecond, func() { fired++ })
	env.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if tm2.Stop() {
		t.Error("Stop after fire returned true")
	}
}
