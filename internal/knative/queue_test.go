package knative

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/resilience"
	"repro/internal/sim"
)

// deploySingle deploys one warm replica with ContainerConcurrency 1, so
// every request beyond the first waits in the service's queue.
func (f *fixture) deploySingle(t *testing.T, p *sim.Proc) *Service {
	t.Helper()
	f.prePull(p)
	spec := baseSpec()
	spec.MinScale, spec.InitialScale, spec.MaxScale = 1, 1, 1
	svc, err := f.kn.Deploy(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// entries counts the run-queue entries a run has made so far.
func entries(env *sim.Env) int {
	s := env.Stats()
	return s.Continuations + s.Resumes
}

// TestQueuedWaitersWakeOnlyToAct: a completion wakes the queue once, and
// only the request that takes the freed slot runs a step, so the run-queue
// entries of K completions grow with K, not with K times the N requests
// waiting.
func TestQueuedWaitersWakeOnlyToAct(t *testing.T) {
	for _, n := range []int{16, 128} {
		f := newFixture(t)
		const k = 12
		var svc *Service
		done := 0
		f.env.Go("main", func(p *sim.Proc) {
			svc = f.deploySingle(t, p)
			for i := 0; i < n; i++ {
				svc.InvokeAsync(Request{From: cluster.SubmitNodeName, Work: 0.1}, func(_ Response, err error) {
					if err != nil {
						t.Error(err)
					}
					done++
				})
			}
		})
		// Run to the first completion, then through k more.
		for done == 0 {
			f.env.RunFor(10 * time.Millisecond)
		}
		before, from := entries(f.env), done
		for done < from+k {
			f.env.RunFor(10 * time.Millisecond)
		}
		got := entries(f.env) - before
		// A completion's own steps, its wake and the next request's steps
		// from slot to completion take a handful of entries; the herd took
		// one more per request still waiting.
		t.Logf("%d queued: %d completions ran %d run-queue entries", n, done-from, got)
		if max := 12 * (done - from); got > max {
			t.Errorf("%d queued: %d completions ran %d run-queue entries, want at most %d",
				n, done-from, got, max)
		}
		for done < n {
			f.env.RunFor(time.Second)
		}
		f.kn.Shutdown()
		f.env.Run()
	}
}

// TestQueueOrderAcrossWake pins the queue's order across a wake: a request
// that joins between a wake and its drain is served before the requests
// that drain leaves waiting, as if each waiter re-joined the queue when
// the wake reached it.
func TestQueueOrderAcrossWake(t *testing.T) {
	f := newFixture(t)
	want := []string{"a", "x", "d", "b", "c"}
	var order []string
	served := func(name string) {
		if order = append(order, name); len(order) == len(want) {
			f.kn.Shutdown()
		}
	}
	invoke := func(svc *Service, name string) {
		svc.InvokeAsync(Request{From: cluster.SubmitNodeName, Work: 0.2}, func(_ Response, err error) {
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
			served(name)
		})
	}
	f.env.Go("main", func(p *sim.Proc) {
		svc := f.deploySingle(t, p)
		f.env.Go("queue", func(q *sim.Proc) {
			q.Sleep(10 * time.Millisecond) // a holds the slot: b and c wait
			invoke(svc, "b")
			invoke(svc, "c")
		})
		if _, err := svc.Invoke(p, Request{From: cluster.SubmitNodeName, Work: 0.2}); err != nil {
			t.Error(err)
		}
		served("a")
		// a's completion woke b and c; their drain has not run yet, since
		// this caller's resume runs first. x takes the freed slot, so the
		// drain leaves b and c waiting behind d, who queued before it ran.
		invoke(svc, "x")
		invoke(svc, "d")
	})
	f.env.Run()
	if len(order) != len(want) {
		t.Fatalf("completion order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completion order %v, want %v", order, want)
		}
	}
}

// TestExpiredWaiterLeavesAtNextWake: a queued request whose deadline passes
// arms no timer; it is dropped at the next wake, when the request holding
// the slot completes.
func TestExpiredWaiterLeavesAtNextWake(t *testing.T) {
	f := newFixture(t)
	var deadline, freedAt, droppedAt time.Duration
	var dropErr error
	f.env.Go("main", func(p *sim.Proc) {
		svc := f.deploySingle(t, p)
		wg := sim.NewWaitGroup(f.env)
		wg.Add(2)
		svc.InvokeAsync(Request{From: cluster.SubmitNodeName, Work: 1}, func(_ Response, err error) {
			if err != nil {
				t.Error(err)
			}
			freedAt = f.env.Now()
			wg.Done()
		})
		deadline = p.Now() + 300*time.Millisecond
		svc.InvokeAsync(Request{From: cluster.SubmitNodeName, Work: 1, Deadline: deadline}, func(_ Response, err error) {
			dropErr, droppedAt = err, f.env.Now()
			wg.Done()
		})
		wg.Wait(p)
		f.kn.Shutdown()
	})
	f.env.Run()
	if !errors.Is(dropErr, resilience.ErrDeadlineExceeded) {
		t.Fatalf("queued request past its deadline: err = %v, want ErrDeadlineExceeded", dropErr)
	}
	if droppedAt != freedAt || droppedAt <= deadline {
		t.Errorf("dropped at %v, want at the next wake %v (the slot's release), after the deadline %v",
			droppedAt, freedAt, deadline)
	}
}
