package sim

import (
	"runtime"
	"testing"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	env := NewEnv(1)
	var woke time.Duration
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Second)
		woke = p.Now()
	})
	end := env.Run()
	if woke != 5*time.Second {
		t.Errorf("woke at %v, want 5s", woke)
	}
	if end != 5*time.Second {
		t.Errorf("Run returned %v, want 5s", end)
	}
	if env.Alive() != 0 {
		t.Errorf("Alive = %d, want 0", env.Alive())
	}
}

func TestZeroSleepYields(t *testing.T) {
	env := NewEnv(1)
	var order []string
	env.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	env.Go("b", func(p *Proc) {
		order = append(order, "b1")
	})
	env.Run()
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if env.Now() != 0 {
		t.Errorf("clock advanced to %v on zero sleep", env.Now())
	}
}

func TestEventOrderingEqualTimes(t *testing.T) {
	env := NewEnv(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		env.At(time.Second, func() { order = append(order, i) })
	}
	env.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events fired out of schedule order: %v", order)
		}
	}
}

func TestTimerStop(t *testing.T) {
	env := NewEnv(1)
	fired := false
	tm := env.After(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Error("first Stop returned false")
	}
	if tm.Stop() {
		t.Error("second Stop returned true")
	}
	env.Run()
	if fired {
		t.Error("stopped timer fired")
	}
}

func TestRunUntilHorizon(t *testing.T) {
	env := NewEnv(1)
	var wakes []time.Duration
	env.Go("p", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(time.Second)
			wakes = append(wakes, p.Now())
		}
	})
	env.RunUntil(3 * time.Second)
	if len(wakes) != 3 {
		t.Fatalf("got %d wakes by 3s, want 3", len(wakes))
	}
	if env.Now() != 3*time.Second {
		t.Errorf("Now = %v, want 3s", env.Now())
	}
	env.Run()
	if len(wakes) != 10 {
		t.Fatalf("got %d wakes total, want 10", len(wakes))
	}
	if env.Now() != 10*time.Second {
		t.Errorf("Now = %v, want 10s", env.Now())
	}
}

func TestRunForIsRelative(t *testing.T) {
	env := NewEnv(1)
	env.Go("p", func(p *Proc) {
		for {
			p.Sleep(time.Second)
		}
	})
	env.RunFor(2 * time.Second)
	env.RunFor(2 * time.Second)
	if env.Now() != 4*time.Second {
		t.Errorf("Now = %v, want 4s", env.Now())
	}
	if env.Alive() != 1 {
		t.Errorf("Alive = %d, want 1", env.Alive())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []time.Duration {
		env := NewEnv(42)
		var log []time.Duration
		for i := 0; i < 5; i++ {
			env.Go("p", func(p *Proc) {
				for j := 0; j < 20; j++ {
					p.Sleep(time.Duration(p.Rand().Intn(1000)) * time.Millisecond)
					log = append(log, p.Now())
				}
			})
		}
		env.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestGoFromWithinProc(t *testing.T) {
	env := NewEnv(1)
	var childRan bool
	env.Go("parent", func(p *Proc) {
		p.Sleep(time.Second)
		p.env.Go("child", func(c *Proc) {
			c.Sleep(time.Second)
			childRan = true
		})
	})
	end := env.Run()
	if !childRan {
		t.Error("child never ran")
	}
	if end != 2*time.Second {
		t.Errorf("end = %v, want 2s", end)
	}
}

func TestBlockedForeverReported(t *testing.T) {
	env := NewEnv(1)
	f := new(Future[int])
	env.Go("stuck", func(p *Proc) { f.Get(p) })
	env.Run()
	if env.Alive() != 1 {
		t.Errorf("Alive = %d, want 1 (process blocked on unresolved future)", env.Alive())
	}
}

// TestProcPanicReachesRun: a panic inside a process is re-raised by Run in
// the driver, with the same value, instead of killing the host process.
func TestProcPanicReachesRun(t *testing.T) {
	env := NewEnv(1)
	env.Go("bomb", func(p *Proc) {
		p.Sleep(time.Second)
		panic("bomb went off")
	})
	defer func() {
		if r := recover(); r != "bomb went off" {
			t.Errorf("recovered %v, want the proc's panic value", r)
		}
	}()
	env.Run()
	t.Error("Run returned normally, want a panic")
}

// TestDrainedEnvReleasesCoroutines: once an Env drains under Run, none of
// its idle coroutines stay behind, so nothing keeps the Env reachable. The
// count may also drop: an earlier test's goroutine can still be exiting.
func TestDrainedEnvReleasesCoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv(1)
	for i := 0; i < 100; i++ {
		env.Go("short", func(p *Proc) { p.Sleep(time.Duration(i) * time.Millisecond) })
	}
	env.Run()
	if env.Alive() != 0 {
		t.Fatalf("Alive = %d, want 0", env.Alive())
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d after Run, %d before NewEnv", after, before)
	}
}
