package sim

import (
	"runtime"
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
			p.env.Go("child", child)
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

// TestChanHandOffSteadyStateZeroAlloc: a send to an armed queue queues
// its bound handler and the value passes through the queue's ring, so the
// hand-off loop allocates nothing once the ring has grown.
func TestChanHandOffSteadyStateZeroAlloc(t *testing.T) {
	env := NewEnv(1)
	var q *Chan[int]
	got := 0
	drain := func() {
		for {
			v, ok := q.Recv()
			if !ok {
				return
			}
			got += v
		}
	}
	q = NewUnbounded[int](env, drain)
	env.Defer(drain)
	env.Go("sender", func(p *Proc) {
		for {
			q.Send(1)
			p.Sleep(time.Millisecond)
		}
	})
	env.RunFor(50 * time.Millisecond) // warm pools
	before := got
	avg := testing.AllocsPerRun(200, func() {
		env.RunFor(time.Millisecond)
	})
	if avg != 0 {
		t.Errorf("steady-state Send/Recv hand-off allocates %.1f times per value, want 0", avg)
	}
	if got == before {
		t.Error("no value was handed off during the measured runs")
	}
}

// TestSemaphoreContendedSteadyStateZeroAlloc: three processes take turns
// on one permit; Release hands it to the head of the wait ring without
// allocating.
func TestSemaphoreContendedSteadyStateZeroAlloc(t *testing.T) {
	env := NewEnv(1)
	sem := NewSemaphore(1)
	for i := 0; i < 3; i++ {
		env.Go("worker", func(p *Proc) {
			for {
				acquire(p, sem)
				p.Sleep(time.Millisecond)
				sem.Release()
			}
		})
	}
	env.RunFor(50 * time.Millisecond) // warm pools
	avg := testing.AllocsPerRun(200, func() {
		env.RunFor(time.Millisecond)
	})
	if avg != 0 {
		t.Errorf("contended Semaphore allocates %.1f times per hand-over, want 0", avg)
	}
}

// TestFutureResetSteadyStateZeroAlloc: a future embedded in a recycled
// struct is Set, Reset and waited on again; the waiter list keeps its
// storage, so the cycle allocates nothing, and a reset future reads
// unresolved.
func TestFutureResetSteadyStateZeroAlloc(t *testing.T) {
	env := NewEnv(1)
	var f Future[int]
	got := 0
	env.Go("waiter", func(p *Proc) {
		for {
			got += f.Get(p)
			f.Reset()
			if f.Done() || f.Value() != 0 {
				t.Error("a reset future reads resolved")
			}
		}
	})
	env.Go("setter", func(p *Proc) {
		for {
			p.Sleep(time.Millisecond)
			f.Set(1)
		}
	})
	env.RunFor(50 * time.Millisecond) // warm pools
	before := got
	avg := testing.AllocsPerRun(200, func() {
		env.RunFor(time.Millisecond)
	})
	if avg != 0 {
		t.Errorf("a Set/Reset/Get cycle allocates %.1f times, want 0", avg)
	}
	if got == before {
		t.Error("no value was delivered during the measured runs")
	}
}

// envSink keeps the Envs built by TestNewEnvBudget on the heap.
var envSink *Env

// TestNewEnvBudget: a fresh Env is two small allocations (the Env and its
// RNG). Fig. 5's grid builds one per simulation, so anything sized or
// allocated up front in NewEnv is paid hundreds of times per sweep.
func TestNewEnvBudget(t *testing.T) {
	if avg := testing.AllocsPerRun(100, func() { envSink = NewEnv(1) }); avg > 2 {
		t.Errorf("NewEnv allocates %.1f times, want <= 2", avg)
	}
	const n = 1000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		envSink = NewEnv(uint64(i))
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / n; b > 512 {
		t.Errorf("NewEnv allocates %d bytes, want <= 512", b)
	}
}
