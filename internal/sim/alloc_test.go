package sim

import (
	"testing"
	"time"
)

// The kernel's event free list and its pool of idle process coroutines
// make the steady-state hot paths allocation-free. These budgets are
// load-bearing for simulator throughput; a regression here silently costs
// every experiment.

// TestSleepSteadyStateZeroAlloc: a process sleeping in a loop must not
// allocate once the event free list and run-queue ring are warm.
func TestSleepSteadyStateZeroAlloc(t *testing.T) {
	env := NewEnv(1)
	env.Go("ticker", func(p *Proc) {
		for {
			p.Sleep(time.Millisecond)
		}
	})
	env.RunFor(50 * time.Millisecond) // warm pools
	avg := testing.AllocsPerRun(200, func() {
		env.RunFor(time.Millisecond)
	})
	if avg != 0 {
		t.Errorf("steady-state Sleep allocates %.1f times per event, want 0", avg)
	}
}

// TestSpawnSteadyStateZeroAlloc: a long-lived spawner starting one short
// child per slice reuses an idle coroutine each time, so spawning allocates
// nothing once warm.
func TestSpawnSteadyStateZeroAlloc(t *testing.T) {
	env := NewEnv(1)
	child := func(p *Proc) {}
	env.Go("spawner", func(p *Proc) {
		for {
			p.Env().Go("child", child)
			p.Sleep(time.Millisecond)
		}
	})
	env.RunFor(50 * time.Millisecond) // warm pools
	avg := testing.AllocsPerRun(200, func() {
		env.RunFor(time.Millisecond)
	})
	if avg != 0 {
		t.Errorf("steady-state spawn allocates %.1f times per child, want 0", avg)
	}
}

// TestAfterStopSteadyStateZeroAlloc: arming and cancelling timers from
// scheduler context recycles event structs and allocates nothing, and the
// value Timer handle stays off the heap.
func TestAfterStopSteadyStateZeroAlloc(t *testing.T) {
	env := NewEnv(1)
	for i := 0; i < 100; i++ { // warm the free list
		env.After(time.Millisecond, func() {})
	}
	env.Run()
	avg := testing.AllocsPerRun(200, func() {
		tm := env.After(time.Millisecond, func() {})
		if !tm.Stop() {
			t.Fatal("Stop of fresh timer returned false")
		}
		env.RunFor(2 * time.Millisecond) // collect the cancelled event
	})
	if avg != 0 {
		t.Errorf("steady-state After+Stop allocates %.1f times per cycle, want 0", avg)
	}
}

// TestAfterFireSteadyStateZeroAlloc: the full arm→fire→recycle cycle of a
// plain callback event is allocation-free too.
func TestAfterFireSteadyStateZeroAlloc(t *testing.T) {
	env := NewEnv(1)
	fired := 0
	cb := func() { fired++ }
	for i := 0; i < 100; i++ {
		env.After(time.Millisecond, cb)
	}
	env.Run()
	avg := testing.AllocsPerRun(200, func() {
		env.After(time.Millisecond, cb)
		env.RunFor(time.Millisecond)
	})
	if avg != 0 {
		t.Errorf("steady-state After+fire allocates %.1f times per event, want 0", avg)
	}
}

// TestWheelArmCancelSteadyStateZeroAlloc: the wheel path is allocation-free
// once warm too. Slot slices keep their capacity across flushes (list[:0]),
// so after one lap of traffic an arm→cancel→flush cycle through the wheel
// recycles everything.
func TestWheelArmCancelSteadyStateZeroAlloc(t *testing.T) {
	env := NewEnv(1)
	cb := func() {}
	// Warm every level-1 slot: arming at a fixed 200ms lead while the clock
	// advances in sub-slot steps walks the arms through all 64 slot slices,
	// giving each one capacity before the measured loop.
	for i := 0; i < 3*wheelSlots; i++ {
		env.After(200*time.Millisecond, cb)
		env.RunFor(34 * time.Millisecond)
	}
	env.Run()
	avg := testing.AllocsPerRun(200, func() {
		tm := env.After(200*time.Millisecond, cb)
		if env.wheel.count != 1 {
			t.Fatal("timer missed the wheel")
		}
		if !tm.Stop() {
			t.Fatal("Stop of fresh wheel timer returned false")
		}
		env.RunFor(300 * time.Millisecond) // flush collects the cancelled event
	})
	if avg != 0 {
		t.Errorf("steady-state wheel arm+cancel allocates %.1f times per cycle, want 0", avg)
	}
}

// TestWheelArmFireSteadyStateZeroAlloc: the full arm→promote→fire cycle
// through the wheel, including the slot flush and heap push, is
// allocation-free in steady state.
func TestWheelArmFireSteadyStateZeroAlloc(t *testing.T) {
	env := NewEnv(1)
	fired := 0
	cb := func() { fired++ }
	for i := 0; i < 3*wheelSlots; i++ { // see TestWheelArmCancelSteadyStateZeroAlloc
		env.After(200*time.Millisecond, cb)
		env.RunFor(34 * time.Millisecond)
	}
	env.Run()
	avg := testing.AllocsPerRun(200, func() {
		env.After(200*time.Millisecond, cb)
		env.RunFor(300 * time.Millisecond)
	})
	if avg != 0 {
		t.Errorf("steady-state wheel arm+fire allocates %.1f times per event, want 0", avg)
	}
}
