package sim

import (
	"strings"
	"testing"
	"time"
)

// acquire takes one of sem's permits for process p: AcquireThen with p's
// resume, and one park.
func acquire(p *Proc, sem *Semaphore) {
	sem.AcquireThen(p.env, p.Resumer())
	p.Await()
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	env := NewEnv(1)
	sem := NewSemaphore(2)
	active, peak := 0, 0
	for i := 0; i < 6; i++ {
		env.Go("worker", func(p *Proc) {
			acquire(p, sem)
			active++
			if active > peak {
				peak = active
			}
			p.Sleep(time.Second)
			active--
			sem.Release()
		})
	}
	end := env.Run()
	if peak != 2 {
		t.Errorf("peak concurrency = %d, want 2", peak)
	}
	if end != 3*time.Second {
		t.Errorf("6 one-second jobs through 2 permits finished at %v, want 3s", end)
	}
}

// TestSemaphoreFIFONoStarvation: a released permit passes to the longest
// waiter, so a process that keeps re-acquiring cannot starve the queue.
func TestSemaphoreFIFONoStarvation(t *testing.T) {
	env := NewEnv(1)
	sem := NewSemaphore(1)
	var order []string
	env.Go("hog", func(p *Proc) {
		for i := 0; i < 3; i++ {
			acquire(p, sem)
			order = append(order, "hog")
			p.Sleep(time.Second)
			sem.Release()
		}
	})
	for _, name := range []string{"a", "b"} {
		env.Go(name, func(p *Proc) {
			p.Sleep(time.Millisecond)
			acquire(p, sem)
			order = append(order, name)
			p.Sleep(time.Second)
			sem.Release()
		})
	}
	env.Run()
	if got := strings.Join(order, " "); got != "hog a b hog hog" {
		t.Errorf("acquisition order = %q, want %q", got, "hog a b hog hog")
	}
}

func TestSemaphoreTryAcquireRespectsQueue(t *testing.T) {
	env := NewEnv(1)
	sem := NewSemaphore(1)
	env.Go("holder", func(p *Proc) {
		acquire(p, sem)
		p.Sleep(time.Second)
		sem.Release()
	})
	env.Go("waiter", func(p *Proc) {
		p.Sleep(time.Millisecond)
		acquire(p, sem)
		sem.Release()
	})
	env.Go("opportunist", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		if sem.tryAcquire() {
			t.Error("tryAcquire succeeded while a waiter was queued")
		}
	})
	env.Run()
	if sem.avail != 1 {
		t.Errorf("avail = %d, want 1", sem.avail)
	}
}

func TestWaitGroup(t *testing.T) {
	env := NewEnv(1)
	wg := NewWaitGroup(env)
	done := 0
	for i := 1; i <= 3; i++ {
		i := i
		wg.Add(1)
		env.Go("worker", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Second)
			done++
			wg.Done()
		})
	}
	var waitedAt time.Duration
	env.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		waitedAt = p.Now()
	})
	env.Run()
	if done != 3 {
		t.Errorf("done = %d, want 3", done)
	}
	if waitedAt != 3*time.Second {
		t.Errorf("Wait returned at %v, want 3s", waitedAt)
	}
}

func TestWaitGroupZeroWaitReturnsImmediately(t *testing.T) {
	env := NewEnv(1)
	wg := NewWaitGroup(env)
	ran := false
	env.Go("p", func(p *Proc) {
		wg.Wait(p)
		ran = true
	})
	env.Run()
	if !ran {
		t.Error("Wait on zero counter blocked")
	}
}

// waitSignal parks p until sig's next Broadcast.
func waitSignal(sig *Signal, p *Proc) {
	sig.Then(p.env, p.resume)
	p.Await()
}

func TestSignalBroadcast(t *testing.T) {
	env := NewEnv(1)
	var sig Signal // the zero Signal is ready to use
	woken := 0
	for i := 0; i < 4; i++ {
		env.Go("waiter", func(p *Proc) {
			waitSignal(&sig, p)
			woken++
		})
	}
	env.Go("caster", func(p *Proc) {
		p.Sleep(time.Second)
		if len(sig.waiters) != 4 {
			t.Errorf("waiters = %d, want 4", len(sig.waiters))
		}
		sig.Broadcast()
	})
	env.Run()
	if woken != 4 {
		t.Errorf("woken = %d, want 4", woken)
	}
}

func TestFutureSetBeforeGet(t *testing.T) {
	env := NewEnv(1)
	f := new(Future[string])
	f.Set("ready")
	env.Go("p", func(p *Proc) {
		if v := f.Get(p); v != "ready" {
			t.Errorf("Get = %q", v)
		}
	})
	env.Run()
}

func TestFutureWakesAllWaiters(t *testing.T) {
	env := NewEnv(1)
	f := new(Future[int])
	got := 0
	for i := 0; i < 3; i++ {
		env.Go("waiter", func(p *Proc) {
			got += f.Get(p)
		})
	}
	env.Go("setter", func(p *Proc) {
		p.Sleep(time.Second)
		f.Set(10)
	})
	env.Run()
	if got != 30 {
		t.Errorf("sum = %d, want 30", got)
	}
}

func TestFutureDoubleSetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("second Set did not panic")
		}
	}()
	f := new(Future[int])
	f.Set(1)
	f.Set(2)
}

// TestResumerEndsAwait: a process parked in Await resumes when its
// Resumer is called, and Await returns at once when the Resumer was called
// before it, as when a wait finishes synchronously.
func TestResumerEndsAwait(t *testing.T) {
	env := NewEnv(1)
	var woke time.Duration = -1
	env.Go("waiter", func(p *Proc) {
		p.Resumer()() // finished at once
		p.Await()
		if p.Now() != 0 {
			t.Errorf("Await after an early resume returned at %v, want 0", p.Now())
		}
		env.After(time.Second, p.Resumer())
		p.Await()
		woke = p.Now()
	})
	env.Run()
	if woke != time.Second {
		t.Errorf("waiter resumed at %v, want 1s", woke)
	}
}

// TestResumerReuse: the Resumer is bound once per process and ends each
// of its successive waits.
func TestResumerReuse(t *testing.T) {
	env := NewEnv(1)
	rounds := 0
	env.Go("waiter", func(p *Proc) {
		resume := p.Resumer()
		for i := 0; i < 5; i++ {
			env.After(time.Second, resume)
			p.Await()
			rounds++
		}
	})
	env.Run()
	if rounds != 5 || env.Now() != 5*time.Second {
		t.Errorf("waiter resumed %d times by %v, want 5 by 5s", rounds, env.Now())
	}
}

// TestResumeTwicePanics: resuming a process that is already back in the
// run queue is a modelling bug.
func TestResumeTwicePanics(t *testing.T) {
	env := NewEnv(1)
	env.Go("waiter", func(p *Proc) {
		env.After(time.Second, func() {
			p.Resumer()()
			p.Resumer()()
		})
		p.Await()
	})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "resume of") {
			t.Errorf("second resume recovered %v, want a resume panic", r)
		}
	}()
	env.Run()
}
