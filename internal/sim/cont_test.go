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

// TestDelayMatchesSleep: a chain of Delay continuations and a process
// sleeping through the same waits step in lockstep — equal-time wake-ups
// interleave as two sleeping processes would, and a zero wait yields to
// the back of the run queue.
func TestDelayMatchesSleep(t *testing.T) {
	waits := []time.Duration{time.Second, 0, 2 * time.Second, 0, 0, time.Second}
	run := func(chained bool) []string {
		env := NewEnv(1)
		var order []string
		env.Go("other", func(p *Proc) {
			for _, d := range waits {
				order = append(order, "other@"+env.Now().String())
				p.Sleep(d)
			}
		})
		if chained {
			i := 0
			var step func()
			step = func() {
				order = append(order, "x@"+env.Now().String())
				if i < len(waits) {
					i++
					env.Delay(waits[i-1], step)
				}
			}
			env.Defer(step)
		} else {
			env.Go("x", func(p *Proc) {
				for _, d := range waits {
					order = append(order, "x@"+env.Now().String())
					p.Sleep(d)
				}
				order = append(order, "x@"+env.Now().String())
			})
		}
		env.Run()
		return order
	}
	if procs, chain := run(false), run(true); !slices.Equal(procs, chain) {
		t.Errorf("chain order %v, process order %v", chain, procs)
	}
}

// TestGoFirstRunsNext: a process spawned with GoFirst runs before every
// entry already in the run queue.
func TestGoFirstRunsNext(t *testing.T) {
	env := NewEnv(1)
	var order []string
	env.Go("a", func(p *Proc) { order = append(order, "a") })
	env.Defer(func() {
		order = append(order, "cont")
		env.GoFirst("first", func(p *Proc) {
			order = append(order, "first")
			p.Sleep(time.Second)
			order = append(order, "first-woke")
		})
	})
	env.Go("b", func(p *Proc) { order = append(order, "b") })
	env.Run()
	if want := []string{"a", "cont", "first", "b", "first-woke"}; !slices.Equal(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

// TestFutureThenOrder: Set enqueues continuation waiters and blocked
// processes together in arrival order, and Then on a resolved future calls
// at once.
func TestFutureThenOrder(t *testing.T) {
	env := NewEnv(1)
	var f Future[int]
	var order []string
	env.Go("p1", func(p *Proc) { order = append(order, "p1="+string(rune('0'+f.Get(p)))) })
	env.Defer(func() { f.Then(env, func() { order = append(order, "c1="+string(rune('0'+f.Value()))) }) })
	env.Go("p2", func(p *Proc) { order = append(order, "p2="+string(rune('0'+f.Get(p)))) })
	env.After(time.Second, func() {
		f.Set(7)
		f.Then(env, func() { order = append(order, "late") })
	})
	env.Run()
	if want := []string{"late", "p1=7", "c1=7", "p2=7"}; !slices.Equal(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

// TestSignalThenOrder: Broadcast enqueues continuation waiters and blocked
// processes together in arrival order, each at the run-queue slot where a
// woken process resumes, and a continuation that registers again waits for
// the next Broadcast, as a process looping on Wait does.
func TestSignalThenOrder(t *testing.T) {
	env := NewEnv(1)
	var sig Signal
	var order []string
	env.Go("p1", func(p *Proc) {
		sig.Wait(p)
		order = append(order, "p1@"+env.Now().String())
	})
	env.Defer(func() {
		again := true
		var wait func()
		wait = func() {
			order = append(order, "c1@"+env.Now().String())
			if again {
				again = false
				sig.Then(env, wait)
			}
		}
		sig.Then(env, wait)
	})
	env.Go("p2", func(p *Proc) {
		for i := 0; i < 2; i++ {
			sig.Wait(p)
			order = append(order, "p2@"+env.Now().String())
		}
	})
	env.After(time.Second, func() {
		env.Go("bystander", func(p *Proc) { order = append(order, "bystander") })
		sig.Broadcast()
	})
	env.After(2*time.Second, sig.Broadcast)
	env.Run()
	want := []string{"bystander", "p1@1s", "c1@1s", "p2@1s", "c1@2s", "p2@2s"}
	if !slices.Equal(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
	if sig.Waiting() != 0 {
		t.Errorf("%d waiters left", sig.Waiting())
	}
}

// TestOpenFirstRunsNext: a process released with Gate.OpenFirst resumes
// before every entry already in the run queue.
func TestOpenFirstRunsNext(t *testing.T) {
	env := NewEnv(1)
	var g Gate
	var order []string
	env.Go("waiter", func(p *Proc) {
		g.Wait(p)
		order = append(order, "waiter")
	})
	env.After(time.Second, func() {
		env.Go("a", func(p *Proc) { order = append(order, "a") })
		env.Defer(func() { order = append(order, "cont") })
		g.OpenFirst()
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
				sig.Wait(p)
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
