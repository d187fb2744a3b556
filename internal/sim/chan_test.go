package sim

import (
	"slices"
	"strings"
	"testing"
	"time"
)

func TestChanFIFOAcrossManySenders(t *testing.T) {
	env := NewEnv(1)
	var ch *Chan[int]
	var got []int
	drain := func() {
		for {
			v, ok := ch.Recv()
			if !ok {
				return
			}
			got = append(got, v)
		}
	}
	ch = NewUnbounded[int](env, drain)
	env.Defer(drain)
	for i := 0; i < 50; i++ {
		env.Go("sender", func(p *Proc) { ch.Send(i) })
	}
	env.Run()
	if len(got) != 50 {
		t.Fatalf("received %d values, want 50", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken at %d: %v", i, got[:i+1])
		}
	}
}

// TestChanCloseWakesReceivers: Close runs the armed handler, but only after
// the values queued before it have drained.
func TestChanCloseWakesReceivers(t *testing.T) {
	env := NewEnv(1)
	var ch *Chan[string]
	var got []string
	closedAt := time.Duration(-1)
	drain := func() {
		for {
			v, ok := ch.Recv()
			if !ok {
				closedAt = env.Now()
				return
			}
			got = append(got, v)
		}
	}
	ch = NewUnbounded[string](env, drain)
	env.Defer(drain)
	env.Go("closer", func(p *Proc) {
		p.Sleep(time.Second)
		ch.Send("a")
		ch.Send("b")
		ch.Close()
	})
	env.Run()
	if strings.Join(got, ",") != "a,b" {
		t.Errorf("received %q before close, want [a b]", got)
	}
	if closedAt != time.Second {
		t.Errorf("handler saw close at %v, want 1s", closedAt)
	}
}

func TestChanDrainAfterClose(t *testing.T) {
	ch := NewUnbounded[int](NewEnv(1), func() { t.Error("handler of an unarmed queue ran") })
	ch.Send(1)
	ch.Send(2)
	ch.Close()
	if v, ok := ch.Recv(); !ok || v != 1 {
		t.Errorf("first drain: %d %v", v, ok)
	}
	if v, ok := ch.Recv(); !ok || v != 2 {
		t.Errorf("second drain: %d %v", v, ok)
	}
	if _, ok := ch.Recv(); ok {
		t.Error("recv past drained close reported ok")
	}
}

func TestChanSendAfterClosePanics(t *testing.T) {
	ch := NewUnbounded[int](NewEnv(1), func() {})
	ch.Close()
	defer func() {
		if recover() == nil {
			t.Error("send on closed Chan did not panic")
		}
	}()
	ch.Send(1)
}

// recvLoop is a test queue handler: it logs each value it pops, waits on
// Env.Delay after "w" (1s) and "y" (0), logging "woke" when the wait ends,
// and logs "closed" once Recv reports the closed queue drained.
type recvLoop struct {
	l      *orderLog
	ch     *Chan[string]
	closed bool // set by the scenario where it closes ch
	woke   func()
}

func newRecvLoop(l *orderLog) *recvLoop {
	r := &recvLoop{l: l}
	r.ch = NewUnbounded[string](l.env, r.drain)
	r.woke = func() {
		l.add("woke")
		r.drain()
	}
	return r
}

func (r *recvLoop) drain() {
	for {
		v, ok := r.ch.Recv()
		if !ok {
			if r.closed {
				r.l.add("closed")
			}
			return
		}
		r.l.add("recv-" + v)
		switch v {
		case "w":
			r.l.env.Delay(time.Second, r.woke)
			return
		case "y":
			r.l.env.Delay(0, r.woke)
			return
		}
	}
}

// TestChanWakeOrder pins where a queue's handler runs among the other
// run-queue entries and same-time events. Each expected log was recorded
// against a receiving process looping on a blocking Recv (the handler
// starts where that process was spawned, and its Delay waits are that
// process's Sleeps): the handler keeps every slot the process had.
func TestChanWakeOrder(t *testing.T) {
	cases := []struct {
		name string
		run  func(l *orderLog, r *recvLoop, start func())
		want []string
	}{{
		// A send from a process queues the armed handler behind the
		// entries already ready; the sender runs on.
		name: "SendFromProcess",
		run: func(l *orderLog, r *recvLoop, start func()) {
			env := l.env
			start()
			env.Go("sender", func(p *Proc) {
				p.Sleep(time.Second)
				env.Defer(l.note("defer"))
				r.ch.Send("a")
				l.add("sent")
				env.Defer(l.note("defer2"))
				p.Sleep(0)
				l.add("sender")
			})
		},
		want: []string{"sent@1s", "defer@1s", "recv-a@1s", "defer2@1s", "sender@1s"},
	}, {
		name: "SendFromEvent",
		run: func(l *orderLog, r *recvLoop, start func()) {
			env := l.env
			start()
			env.At(time.Second, func() {
				env.Defer(l.note("defer"))
				r.ch.Send("a")
				env.Delay(0, l.note("delay0"))
			})
			env.At(time.Second, l.note("ev2"))
		},
		want: []string{"defer@1s", "recv-a@1s", "delay0@1s", "ev2@1s"},
	}, {
		// The second send before the handler runs only queues its value.
		name: "TwoSendsBeforeRun",
		run: func(l *orderLog, r *recvLoop, start func()) {
			env := l.env
			start()
			env.At(time.Second, func() {
				r.ch.Send("a")
				env.Defer(l.note("defer"))
				r.ch.Send("b")
			})
		},
		want: []string{"recv-a@1s", "recv-b@1s", "defer@1s"},
	}, {
		// A value sent before the first drain waits for it in its slot.
		name: "SendBeforeFirstRun",
		run: func(l *orderLog, r *recvLoop, start func()) {
			env := l.env
			env.Defer(l.note("d0"))
			start()
			env.Defer(l.note("d1"))
			r.ch.Send("a")
			env.Defer(l.note("d2"))
		},
		want: []string{"d0@0s", "recv-a@0s", "d1@0s", "d2@0s"},
	}, {
		// A send during the handler's Delay only queues: the handler pops
		// it when its wait ends, after the same-time events armed before
		// the wait.
		name: "SendWhileWaiting",
		run: func(l *orderLog, r *recvLoop, start func()) {
			env := l.env
			start()
			env.At(time.Second, func() { r.ch.Send("w") })
			env.At(2*time.Second, l.note("ev2s"))
			env.At(1500*time.Millisecond, func() {
				r.ch.Send("b")
				env.At(2*time.Second, l.note("ev2s-late"))
			})
			env.At(3*time.Second, func() {
				r.ch.Send("z")
				env.Defer(l.note("defer"))
			})
		},
		want: []string{"recv-w@1s", "ev2s@2s", "woke@2s", "recv-b@2s", "ev2s-late@2s", "recv-z@3s", "defer@3s"},
	}, {
		// A zero wait resumes the drain from the back of the run queue.
		name: "SendWhileYielding",
		run: func(l *orderLog, r *recvLoop, start func()) {
			env := l.env
			start()
			env.At(time.Second, func() {
				r.ch.Send("y")
				env.Defer(l.note("defer"))
			})
			env.At(time.Second, func() {
				r.ch.Send("b")
				env.Defer(l.note("defer2"))
			})
		},
		want: []string{"recv-y@1s", "defer@1s", "woke@1s", "recv-b@1s", "defer2@1s"},
	}, {
		name: "CloseWhileArmed",
		run: func(l *orderLog, r *recvLoop, start func()) {
			env := l.env
			start()
			env.At(time.Second, func() {
				env.Defer(l.note("defer"))
				r.closed = true
				r.ch.Close()
				env.Defer(l.note("defer2"))
			})
		},
		want: []string{"defer@1s", "closed@1s", "defer2@1s"},
	}, {
		// A close during the handler's wait is seen once it has drained
		// the values sent before it.
		name: "CloseWhileBusy",
		run: func(l *orderLog, r *recvLoop, start func()) {
			env := l.env
			start()
			env.At(time.Second, func() { r.ch.Send("w") })
			env.At(1500*time.Millisecond, func() {
				r.ch.Send("b")
				r.closed = true
				r.ch.Close()
				env.Defer(l.note("defer"))
			})
		},
		want: []string{"recv-w@1s", "defer@1.5s", "woke@2s", "recv-b@2s", "closed@2s"},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := &orderLog{env: NewEnv(1)}
			r := newRecvLoop(l)
			tc.run(l, r, func() { l.env.Defer(r.drain) })
			l.env.Run()
			if !slices.Equal(l.got, tc.want) {
				t.Errorf("order\n got %q\nwant %q", l.got, tc.want)
			}
		})
	}
}
