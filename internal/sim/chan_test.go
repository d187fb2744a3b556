package sim

import (
	"strings"
	"testing"
	"time"
)

func TestChanFIFOAcrossManySenders(t *testing.T) {
	env := NewEnv(1)
	ch := NewUnbounded[int]()
	for i := 0; i < 50; i++ {
		i := i
		env.Go("sender", func(p *Proc) { ch.Send(i) })
	}
	var got []int
	env.Go("receiver", func(p *Proc) {
		for i := 0; i < 50; i++ {
			v, _ := ch.Recv(p)
			got = append(got, v)
		}
	})
	env.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken at %d: %v", i, got[:i+1])
		}
	}
}

// TestChanCloseWakesReceivers: Close wakes the parked receiver, but only
// after the values queued before it have drained.
func TestChanCloseWakesReceivers(t *testing.T) {
	env := NewEnv(1)
	ch := NewUnbounded[string]()
	var got []string
	var closedAt time.Duration
	env.Go("receiver", func(p *Proc) {
		for {
			v, ok := ch.Recv(p)
			if !ok {
				closedAt = p.Now()
				return
			}
			got = append(got, v)
		}
	})
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
		t.Errorf("receiver saw close at %v, want 1s", closedAt)
	}
	if env.Alive() != 0 {
		t.Errorf("Alive = %d after close", env.Alive())
	}
}

func TestChanDrainAfterClose(t *testing.T) {
	env := NewEnv(1)
	ch := NewUnbounded[int]()
	env.Go("p", func(p *Proc) {
		ch.Send(1)
		ch.Send(2)
		ch.Close()
		if v, ok := ch.Recv(p); !ok || v != 1 {
			t.Errorf("first drain: %d %v", v, ok)
		}
		if v, ok := ch.Recv(p); !ok || v != 2 {
			t.Errorf("second drain: %d %v", v, ok)
		}
		if _, ok := ch.Recv(p); ok {
			t.Error("recv past drained close reported ok")
		}
	})
	env.Run()
}

// TestChanSecondReceiverPanics: a Chan has exactly one receiving loop. A
// second Recv while the first is parked, or woken but not yet resumed,
// is a modelling bug.
func TestChanSecondReceiverPanics(t *testing.T) {
	for _, woken := range []bool{false, true} {
		env := NewEnv(1)
		ch := NewUnbounded[int]()
		env.Go("first", func(p *Proc) { ch.Recv(p) })
		env.Go("second", func(p *Proc) {
			if woken {
				ch.Send(1) // first is now runnable, its value queued
			}
			ch.Recv(p)
		})
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), "concurrent Recv") {
					t.Errorf("woken=%v: second receiver recovered %v, want a concurrent-Recv panic", woken, r)
				}
			}()
			env.Run()
		}()
	}
}

func TestChanSendAfterClosePanics(t *testing.T) {
	ch := NewUnbounded[int]()
	ch.Close()
	defer func() {
		if recover() == nil {
			t.Error("send on closed Chan did not panic")
		}
	}()
	ch.Send(1)
}
