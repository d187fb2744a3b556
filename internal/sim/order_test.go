package sim

import (
	"slices"
	"testing"
	"time"
)

// orderLog records "name@now" lines in the order a scenario runs them.
type orderLog struct {
	env *Env
	got []string
}

func (l *orderLog) add(name string) { l.got = append(l.got, name+"@"+l.env.Now().String()) }

// note returns a continuation that records name.
func (l *orderLog) note(name string) func() { return func() { l.add(name) } }

// TestWaitOrder pins, for each kernel wait, the order in which a released
// process runs among the continuations (Defer, Delay, Then) and the
// same-time events around its release. A change to how a wait parks or
// wakes its process shows here as a reordered line.
func TestWaitOrder(t *testing.T) {
	cases := []struct {
		name string
		run  func(l *orderLog)
		want []string
	}{{
		// A Delay chain and two processes sleeping through the same
		// waits step in lockstep: equal-time wake-ups fire in arrival
		// order, each after the run queue drains, and a zero wait goes
		// to the back of the run queue.
		name: "Sleep",
		run: func(l *orderLog) {
			env := l.env
			waits := []time.Duration{0, time.Second, 0, 2 * time.Second, 0}
			sleeper := func(name string) func(*Proc) {
				return func(p *Proc) {
					for _, d := range waits {
						l.add(name)
						p.Sleep(d)
					}
					l.add(name)
				}
			}
			env.Go("p", sleeper("p"))
			i := 0
			var step func()
			step = func() {
				l.add("c")
				if i < len(waits) {
					i++
					env.Delay(waits[i-1], step)
				}
			}
			env.Defer(step)
			env.Go("q", sleeper("q"))
			env.At(time.Second, func() {
				l.add("ev")
				env.Defer(l.note("defer"))
				env.Delay(0, l.note("delay0"))
			})
		},
		want: []string{
			"p@0s", "c@0s", "q@0s", "p@0s", "c@0s", "q@0s",
			"ev@1s", "defer@1s", "delay0@1s",
			"p@1s", "p@1s", "c@1s", "c@1s", "q@1s", "q@1s",
			"p@3s", "p@3s", "c@3s", "c@3s", "q@3s", "q@3s",
		},
	}, {
		// Set wakes processes blocked in Get and runs Then waiters in
		// arrival order, behind whatever its callback enqueued first;
		// Then on a resolved future calls at once.
		name: "FutureGet",
		run: func(l *orderLog) {
			env := l.env
			var f Future[int]
			env.Go("p1", func(p *Proc) { f.Get(p); l.add("p1") })
			env.Defer(func() { f.Then(env, l.note("c1")) })
			env.Go("p2", func(p *Proc) { f.Get(p); l.add("p2") })
			env.At(time.Second, func() {
				env.Go("bystander", func(*Proc) { l.add("bystander") })
				f.Set(7)
				f.Then(env, l.note("late"))
				env.Defer(l.note("defer"))
			})
			env.At(time.Second, l.note("ev2"))
		},
		want: []string{"late@1s", "bystander@1s", "p1@1s", "c1@1s", "p2@1s", "defer@1s", "ev2@1s"},
	}, {
		// Broadcast wakes waiting processes and Then continuations in
		// arrival order; a continuation that registers again waits for
		// the next Broadcast, as a process looping on its wait does.
		name: "SignalWait",
		run: func(l *orderLog) {
			env := l.env
			var sig Signal
			env.Go("p1", func(p *Proc) { waitSignal(&sig, p); l.add("p1") })
			env.Defer(func() {
				again := true
				var wait func()
				wait = func() {
					l.add("c1")
					if again {
						again = false
						sig.Then(env, wait)
					}
				}
				sig.Then(env, wait)
			})
			env.Go("p2", func(p *Proc) {
				for i := 0; i < 2; i++ {
					waitSignal(&sig, p)
					l.add("p2")
				}
			})
			env.At(time.Second, func() {
				env.Go("bystander", func(*Proc) { l.add("bystander") })
				sig.Broadcast()
				env.Delay(0, l.note("delay0"))
			})
			env.At(time.Second, l.note("ev2"))
			env.At(2*time.Second, sig.Broadcast)
		},
		want: []string{"bystander@1s", "p1@1s", "c1@1s", "p2@1s", "delay0@1s", "ev2@1s", "c1@2s", "p2@2s"},
	}, {
		// Release hands the permit to the longest waiter, which runs
		// behind what the releasing callback enqueued before it.
		name: "SemaphoreAcquire",
		run: func(l *orderLog) {
			env := l.env
			sem := NewSemaphore(1)
			sem.tryAcquire() // held until the event at 1s
			for _, name := range []string{"p1", "p2"} {
				env.Go(name, func(p *Proc) {
					acquire(p, sem)
					l.add(name)
					p.Sleep(0)
					l.add(name + "-release")
					sem.Release()
				})
			}
			env.At(time.Second, func() {
				env.Defer(l.note("defer"))
				sem.Release()
				env.Delay(0, l.note("delay0"))
			})
			env.At(time.Second, l.note("ev2"))
		},
		want: []string{
			"defer@1s", "p1@1s", "delay0@1s", "p1-release@1s", "p2@1s",
			"p2-release@1s", "ev2@1s",
		},
	}, {
		// The Add that reaches zero wakes every waiter in arrival order.
		name: "WaitGroupWait",
		run: func(l *orderLog) {
			env := l.env
			wg := NewWaitGroup(env)
			wg.Add(2)
			env.Go("p1", func(p *Proc) { wg.Wait(p); l.add("p1") })
			env.Go("p2", func(p *Proc) { wg.Wait(p); l.add("p2") })
			env.At(time.Second, func() {
				wg.Done()
				env.Defer(l.note("defer"))
			})
			env.At(time.Second, func() {
				env.Go("bystander", func(*Proc) { l.add("bystander") })
				wg.Done()
				env.Delay(0, l.note("delay0"))
			})
			env.At(time.Second, l.note("ev3"))
		},
		want: []string{"defer@1s", "bystander@1s", "p1@1s", "p2@1s", "delay0@1s", "ev3@1s"},
	}, {
		// A Send queues the armed handler once; a second Send before it
		// runs only queues its value. The handler starts where a receiving
		// process would have been spawned, and keeps its order.
		name: "ChanRecv",
		run: func(l *orderLog) {
			env := l.env
			var ch *Chan[string]
			drain := func() {
				for {
					v, ok := ch.Recv()
					if !ok {
						return
					}
					l.add("recv-" + v)
				}
			}
			ch = NewUnbounded[string](env, drain)
			env.Defer(drain)
			env.At(time.Second, func() {
				env.Defer(l.note("defer"))
				ch.Send("a")
				env.Delay(0, l.note("delay0"))
				ch.Send("b")
			})
			env.At(time.Second, func() {
				l.add("ev2")
				ch.Send("c")
				ch.Close()
			})
		},
		want: []string{"defer@1s", "recv-a@1s", "recv-b@1s", "delay0@1s", "ev2@1s", "recv-c@1s"},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := &orderLog{env: NewEnv(1)}
			tc.run(l)
			l.env.Run()
			if !slices.Equal(l.got, tc.want) {
				t.Errorf("order\n got %q\nwant %q", l.got, tc.want)
			}
			if n := l.env.Alive(); n != 0 {
				t.Errorf("%d processes left blocked", n)
			}
		})
	}
}
