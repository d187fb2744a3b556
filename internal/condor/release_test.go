package condor

import (
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/sim"
)

// noop is a payload that ends at once and allocates nothing to call.
var noop = jobFunc(func(_ *ExecContext, done func(error)) { done(nil) })

// TestReleasedJobCycleAllocatesNothing: once warm, a submit → settle →
// release cycle reuses the released job's struct and its bound callbacks,
// so an untraced cycle allocates nothing.
func TestReleasedJobCycleAllocatesNothing(t *testing.T) {
	f := newFixture(t, fastPerJob)
	const period = time.Minute // one job, settled and released, per period
	var reused int
	var last *Job
	f.env.Go("driver", func(p *sim.Proc) {
		for next := period; ; next += period {
			p.Sleep(next - p.Now())
			j := f.s.SubmitJob(JobSpec{Run: noop})
			if err := f.s.Wait(p, j); err != nil {
				t.Error(err)
			}
			if j == last {
				reused++
			}
			last = j
			f.s.Release(j)
		}
	})
	// RunFor stops with the driver's next wake pending, so the kernel keeps
	// its idle coroutines between cycles.
	cycle := func() { f.env.RunFor(period) }
	for i := 0; i < 3; i++ {
		cycle() // warm the free lists, rings and pools
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("a released job's cycle allocates %.2f times, want 0", allocs)
	}
	if reused < 50 {
		t.Errorf("only %d submissions reused the released job's struct", reused)
	}
}

// TestUnreleasedJobsAreNotRecycled: a submitter that never calls Release
// gets a fresh struct per job, and a settled job keeps its outcome.
func TestUnreleasedJobsAreNotRecycled(t *testing.T) {
	f := newFixture(t, fastPerJob)
	f.env.Go("driver", func(p *sim.Proc) {
		a := f.s.SubmitJob(JobSpec{Run: noop})
		_ = f.s.Wait(p, a)
		b := f.s.SubmitJob(JobSpec{Run: noop})
		_ = f.s.Wait(p, b)
		if a == b {
			t.Error("an unreleased job's struct was reused")
		}
		if a.Status() != StatusCompleted || a.Node() == "" {
			t.Errorf("settled job reads status %v node %q", a.Status(), a.Node())
		}
	})
	f.env.Run()
}

// TestReleasedJobOutlivesItsWakeups is the trigger watcher's case. A
// watcher parks on a job that its submitter has already released. When
// the job settles, a continuation woken by the same settlement submits a
// new job in that instant, before the watcher runs. The new job must get
// a fresh struct, so the watcher still reads the released job's own node.
// The recycle happens right after the watcher has run.
func TestReleasedJobOutlivesItsWakeups(t *testing.T) {
	f := newFixture(t, fastPerJob)
	var next *Job
	var seen string
	f.env.Go("main", func(p *sim.Proc) {
		j := f.s.SubmitJob(JobSpec{Run: jobFunc(func(_ *ExecContext, done func(error)) {
			f.env.Delay(time.Second, func() { done(nil) })
		})})
		j.done.Then(f.env, func() { next = f.s.SubmitJob(JobSpec{Run: noop}) })
		f.env.Go("watcher", func(wp *sim.Proc) {
			_ = f.s.Wait(wp, j)
			seen = j.Node()
			if len(f.s.free) != 0 {
				t.Error("the released job was recycled before its watcher ran")
			}
			wp.Sleep(0) // let the deferred recycle run
			if len(f.s.free) != 1 || f.s.free[0] != j {
				t.Errorf("free list %v after the watcher ran, want the released job", f.s.free)
			}
		})
		p.Sleep(10 * time.Millisecond) // the watcher parks first
		f.s.Release(j)                 // released while it runs, as a hedge loser is
		for j.Status() != StatusRunning {
			p.Sleep(100 * time.Millisecond)
		}
		want := j.Node()
		_ = f.s.Wait(p, j)
		if next == nil || next == j {
			t.Fatalf("the same-instant submission got %p, want a fresh job (released %p)", next, j)
		}
		if seen != want {
			t.Errorf("watcher read node %q after the settlement, want the released job's %q", seen, want)
		}
	})
	f.env.Run()
}

// TestDoubleReleasePanics: a second Release would queue the struct for
// reuse twice, so it fails loudly instead.
func TestDoubleReleasePanics(t *testing.T) {
	f := newFixture(t, fastPerJob)
	j := f.s.SubmitJob(JobSpec{Run: noop})
	f.s.Release(j)
	defer func() {
		if got := recover(); got != "condor: job released twice" {
			t.Errorf("second Release: recovered %v", got)
		}
	}()
	f.s.Release(j)
}

// TestThenRunsWhereWaitResumes: a Then continuation runs in arrival order
// with the processes blocked in Wait on the same job, reads a released
// job's own node, and runs at once on a job that has already settled. The
// released struct is recycled only after the continuation has run.
func TestThenRunsWhereWaitResumes(t *testing.T) {
	f := newFixture(t, fastPerJob)
	var log []string
	f.env.Go("main", func(p *sim.Proc) {
		j := f.s.SubmitJob(JobSpec{Run: noop})
		f.env.Go("first", func(wp *sim.Proc) {
			_ = f.s.Wait(wp, j)
			log = append(log, "wait first")
		})
		p.Sleep(time.Millisecond) // the first waiter parks
		f.s.Then(j, func(sj *Job) {
			log = append(log, "then "+sj.Node())
			if len(f.s.free) != 0 {
				t.Error("the released job was recycled before its continuation ran")
			}
		})
		f.env.Go("last", func(wp *sim.Proc) {
			_ = f.s.Wait(wp, j)
			log = append(log, "wait last")
		})
		p.Sleep(time.Millisecond)
		f.s.Release(j)
		for j.Status() != StatusRunning {
			p.Sleep(100 * time.Millisecond)
		}
		want := j.Node()
		p.Sleep(time.Minute) // the job settles and is recycled
		if got := strings.Join(log, ", "); got != "wait first, then "+want+", wait last" {
			t.Errorf("wake order %q, want the continuation between the waiters, reading node %s", got, want)
		}
		if len(f.s.free) != 1 {
			t.Errorf("free list %v, want the released job", f.s.free)
		}
		k := f.s.SubmitJob(JobSpec{Run: noop})
		_ = f.s.Wait(p, k)
		ran := false
		f.s.Then(k, func(*Job) { ran = true })
		if !ran {
			t.Error("Then on a settled job did not run at once")
		}
	})
	f.env.Run()
}

// TestThenCycleAllocatesNothing: a submitter that watches each job with
// one bound continuation and releases it there allocates nothing once the
// job structs are warm.
func TestThenCycleAllocatesNothing(t *testing.T) {
	f := newFixture(t, fastPerJob)
	const period = time.Minute
	settled := 0
	watch := func(j *Job) {
		settled++
		f.s.Release(j)
	}
	var submit func()
	submit = func() {
		f.s.Then(f.s.SubmitJob(JobSpec{Run: noop}), watch)
		f.env.After(period, submit)
	}
	f.env.Defer(submit)
	// A parked process keeps the kernel's idle coroutines between cycles.
	f.env.Go("keeper", func(p *sim.Proc) { p.Sleep(time.Duration(1 << 62)) })
	cycle := func() { f.env.RunFor(period) }
	for i := 0; i < 3; i++ {
		cycle() // warm the free lists, rings and pools
	}
	before := settled
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("a watched job's cycle allocates %.2f times, want 0", allocs)
	}
	if settled-before < 50 {
		t.Errorf("only %d continuations ran in 51 cycles", settled-before)
	}
}

// TestSecondThenPanics: a job holds one continuation at a time.
func TestSecondThenPanics(t *testing.T) {
	f := newFixture(t, fastPerJob)
	j := f.s.SubmitJob(JobSpec{Run: noop})
	f.s.Then(j, func(*Job) {})
	defer func() {
		if got := recover(); got != "condor: a second continuation on one job" {
			t.Errorf("second Then: recovered %v", got)
		}
	}()
	f.s.Then(j, func(*Job) {})
}

// sleeper is a chained payload: it holds its slot for d through one
// Env.Delay, its continuation bound once, and reports through done.
type sleeper struct {
	env  *sim.Env
	d    time.Duration
	done func(error)
	wake func()
}

func newSleeper(env *sim.Env, d time.Duration) *sleeper {
	s := &sleeper{env: env, d: d}
	s.wake = func() { s.done(nil) }
	return s
}

func (s *sleeper) Run(_ *ExecContext, done func(error)) {
	s.done = done
	s.env.Delay(s.d, s.wake)
}

// TestChainedPayloadCycleAllocatesNothing: a warm job whose payload waits
// through a chain (shadow, both sandbox transfers, the payload's own
// delay) allocates nothing per cycle and creates no coroutine beyond the
// driver's.
func TestChainedPayloadCycleAllocatesNothing(t *testing.T) {
	f := newFixture(t, fastPerJob)
	const period = time.Minute
	run := newSleeper(f.env, 5*time.Second)
	f.env.Go("driver", func(p *sim.Proc) {
		for next := period; ; next += period {
			p.Sleep(next - p.Now())
			j := f.s.SubmitJob(JobSpec{Run: run, TransferInputBytes: 1 << 20, TransferOutputBytes: 1 << 19})
			if err := f.s.Wait(p, j); err != nil {
				t.Error(err)
			}
			f.s.Release(j)
		}
	})
	cycle := func() { f.env.RunFor(period) }
	for i := 0; i < 3; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("a chained job's cycle allocates %.2f times, want 0", allocs)
	}
	if got := f.env.Stats().Coroutines; got != 1 {
		t.Errorf("%d coroutines created, want 1 (the driver)", got)
	}
}

// TestFaultedJobsFailAfterRequeue: a node crash before the payload starts
// or while it runs, and an injected eviction, each fail the job with its
// own error, and the failure settles only after the requeue penalty.
func TestFaultedJobsFailAfterRequeue(t *testing.T) {
	for _, tc := range []struct {
		name    string
		crashAt time.Duration // 0: no crash
		evict   bool
		want    string
	}{
		{"crash-before-start", 1500 * time.Millisecond, false, "crashed before start"},
		{"crash-mid-execution", 5 * time.Second, false, "crashed during execution"},
		{"evicted", 0, true, "evicted"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, func(p *config.Params) {
				fastPerJob(p)
				p.WorkerNodes = 1
				p.ShadowSpawn = 0
				p.JobStartOverhead = 2 * time.Second
			})
			if tc.evict {
				in := faults.NewInjector(f.env)
				f.s.AttachFaults(in)
				in.Schedule(faults.Fault{Kind: faults.KindJobFailure, Rate: 1})
			}
			if tc.crashAt > 0 {
				f.env.After(tc.crashAt, func() { f.s.crashNode(f.cl.Workers[0].Name) })
			}
			f.env.Go("main", func(p *sim.Proc) {
				j := f.s.SubmitJob(JobSpec{Run: newSleeper(f.env, 10*time.Second)})
				err := f.s.Wait(p, j)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("err = %v, want one saying %q", err, tc.want)
				}
				if j.Status() != StatusFailed {
					t.Errorf("status = %v, want Failed", j.Status())
				}
				if penalty := p.Now() - j.FinishedAt; penalty != f.prm.EffectiveRequeueDelay() {
					t.Errorf("settled %v after the claim ended, want the requeue delay %v", penalty, f.prm.EffectiveRequeueDelay())
				}
				f.s.Shutdown()
			})
			f.env.Run()
		})
	}
}
