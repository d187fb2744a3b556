package sim

import (
	"slices"
	"testing"
	"time"
)

// TestDeferTakesProcessSlot: a deferred continuation runs where a process
// spawned at the same moment would first run, in FIFO order with the
// processes around it.
func TestDeferTakesProcessSlot(t *testing.T) {
	env := NewEnv(1)
	var order []string
	env.Go("a", func(p *Proc) { order = append(order, "a") })
	env.Defer(func() { order = append(order, "cont") })
	env.Go("b", func(p *Proc) { order = append(order, "b") })
	env.Run()
	if want := []string{"a", "cont", "b"}; !slices.Equal(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

// TestResumerRunsNext: a parked process whose Resumer a continuation calls
// runs before every entry already in the run queue, in the slot where the
// continuation ran.
func TestResumerRunsNext(t *testing.T) {
	env := NewEnv(1)
	var resume func()
	var order []string
	env.Go("waiter", func(p *Proc) {
		resume = p.Resumer()
		p.Await()
		order = append(order, "waiter")
	})
	env.After(time.Second, func() {
		env.Go("a", func(p *Proc) { order = append(order, "a") })
		env.Defer(func() { order = append(order, "cont") })
		resume()
	})
	env.Run()
	if want := []string{"waiter", "a", "cont"}; !slices.Equal(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

// TestStatsCounts: the work counters count events fired, coroutines
// created, resumes and continuations — and a cancelled event is not fired.
func TestStatsCounts(t *testing.T) {
	env := NewEnv(1)
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(time.Second)
		env.Go("reuse", func(p *Proc) {}) // takes done's idle coroutine
	})
	env.Go("done", func(p *Proc) {})
	env.Defer(func() {})
	env.Delay(0, func() {})
	env.After(2*time.Second, func() {})
	env.After(3*time.Second, func() {}).Stop()
	env.Run()
	want := Stats{Events: 2, Coroutines: 2, Resumes: 4, Continuations: 2}
	if got := env.Stats(); got != want {
		t.Errorf("Stats = %+v, want %+v", got, want)
	}
}

// TestContinuationSteadyStateZeroAlloc: a continuation that re-arms itself
// with Delay, one wait in the run queue and one in the event queue,
// allocates nothing once the pools are warm.
func TestContinuationSteadyStateZeroAlloc(t *testing.T) {
	env := NewEnv(1)
	zero := false
	var step func()
	step = func() {
		zero = !zero
		if zero {
			env.Delay(0, step)
		} else {
			env.Delay(time.Millisecond, step)
		}
	}
	env.Defer(step)
	env.RunFor(50 * time.Millisecond) // warm pools
	avg := testing.AllocsPerRun(200, func() {
		env.RunFor(time.Millisecond)
	})
	if avg != 0 {
		t.Errorf("steady-state continuation chain allocates %.1f times per cycle, want 0", avg)
	}
}

// TestSignalBroadcastSteadyStateZeroAlloc: Broadcast keeps the waiter
// slice, so a wait/broadcast cycle allocates nothing once it has grown.
func TestSignalBroadcastSteadyStateZeroAlloc(t *testing.T) {
	env := NewEnv(1)
	var sig Signal
	woke := 0
	for i := 0; i < 3; i++ {
		env.Go("waiter", func(p *Proc) {
			for {
				waitSignal(&sig, p)
				woke++
			}
		})
	}
	env.Go("broadcaster", func(p *Proc) {
		for {
			p.Sleep(time.Millisecond)
			sig.Broadcast()
		}
	})
	env.RunFor(50 * time.Millisecond) // warm pools
	before := woke
	avg := testing.AllocsPerRun(200, func() {
		env.RunFor(time.Millisecond)
	})
	if avg != 0 {
		t.Errorf("steady-state Signal wait/broadcast allocates %.1f times per cycle, want 0", avg)
	}
	if woke == before {
		t.Error("no waiter woke during the measured runs")
	}
}
