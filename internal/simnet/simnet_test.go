package simnet

import (
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

func newNet(env *sim.Env) *Network {
	n := New(env, time.Millisecond)
	n.AddNode("submit", 100) // 100 B/s for easy arithmetic
	n.AddNode("w1", 100)
	n.AddNode("w2", 50)
	return n
}

// transfer and message wait in a process on TransferThen and MessageThen:
// the process's resume is the continuation, then one park.
func transfer(p *sim.Proc, n *Network, from, to string, size int64) {
	n.TransferThen(from, to, size, p.Resumer())
	p.Await()
}

func message(p *sim.Proc, n *Network, from, to string) {
	n.MessageThen(from, to, p.Resumer())
	p.Await()
}

func TestTransferTime(t *testing.T) {
	env := sim.NewEnv(1)
	n := newNet(env)
	env.Go("xfer", func(p *sim.Proc) {
		transfer(p, n, "submit", "w1", 200) // 200 B at 100 B/s + 1ms latency
		want := 2*time.Second + time.Millisecond
		if p.Now() != want {
			t.Errorf("transfer took %v, want %v", p.Now(), want)
		}
	})
	env.Run()
}

func TestTransferSharesEgress(t *testing.T) {
	env := sim.NewEnv(1)
	n := newNet(env)
	var done [2]time.Duration
	for i := 0; i < 2; i++ {
		i := i
		env.Go("xfer", func(p *sim.Proc) {
			transfer(p, n, "submit", "w1", 100)
			done[i] = p.Now()
		})
	}
	env.Run()
	want := 2*time.Second + time.Millisecond // two 100 B transfers share 100 B/s
	for i, d := range done {
		if d != want {
			t.Errorf("transfer %d finished at %v, want %v", i, d, want)
		}
	}
}

func TestTransferCappedByReceiver(t *testing.T) {
	env := sim.NewEnv(1)
	n := newNet(env)
	env.Go("xfer", func(p *sim.Proc) {
		transfer(p, n, "submit", "w2", 100) // receiver w2 is 50 B/s
		want := 2*time.Second + time.Millisecond
		if p.Now() != want {
			t.Errorf("transfer took %v, want %v", p.Now(), want)
		}
	})
	env.Run()
}

func TestLoopbackFree(t *testing.T) {
	env := sim.NewEnv(1)
	n := newNet(env)
	env.Go("xfer", func(p *sim.Proc) {
		transfer(p, n, "w1", "w1", 1<<30)
		message(p, n, "w1", "w1")
		if p.Now() != 0 {
			t.Errorf("loopback cost %v", p.Now())
		}
	})
	env.Run()
}

func TestMessageLatencyOnly(t *testing.T) {
	env := sim.NewEnv(1)
	n := newNet(env)
	env.Go("msg", func(p *sim.Proc) {
		message(p, n, "w1", "w2")
		if p.Now() != time.Millisecond {
			t.Errorf("message took %v, want 1ms", p.Now())
		}
	})
	env.Run()
}

func TestAccounting(t *testing.T) {
	env := sim.NewEnv(1)
	n := newNet(env)
	env.Go("xfer", func(p *sim.Proc) {
		transfer(p, n, "submit", "w1", 300)
		transfer(p, n, "w1", "submit", 50)
	})
	env.Run()
	if n.BytesSent("submit") != 300 || n.BytesReceived("w1") != 300 {
		t.Errorf("submit tx=%d w1 rx=%d", n.BytesSent("submit"), n.BytesReceived("w1"))
	}
	if n.BytesSent("w1") != 50 || n.BytesReceived("submit") != 50 {
		t.Errorf("reverse accounting wrong")
	}
}

func TestZeroByteTransferIsLatencyOnly(t *testing.T) {
	env := sim.NewEnv(1)
	n := newNet(env)
	env.Go("xfer", func(p *sim.Proc) {
		transfer(p, n, "submit", "w1", 0)
		if p.Now() != time.Millisecond {
			t.Errorf("zero-byte transfer took %v", p.Now())
		}
	})
	env.Run()
}

func TestUnknownNodePanics(t *testing.T) {
	env := sim.NewEnv(1)
	n := newNet(env)
	_ = env
	defer func() {
		if recover() == nil {
			t.Error("message to unknown node did not panic")
		}
	}()
	n.MessageThen("submit", "nope", func() {}) // panics in mustIface
}

func TestDuplicateNodePanics(t *testing.T) {
	env := sim.NewEnv(1)
	n := newNet(env)
	defer func() {
		if recover() == nil {
			t.Error("duplicate AddNode did not panic")
		}
	}()
	n.AddNode("w1", 10)
}

// TestTransferThenMatchesTransfer: transfers submitted in chained form
// finish, and their continuations run, in the order and at the times the
// same transfers' waiting processes resume — loopback and zero-size
// transfers, transfers contending for one egress, and transfers held by a
// partition healed while they wait, interleaved with a process sleeping
// beside them.
func TestTransferThenMatchesTransfer(t *testing.T) {
	type sub struct {
		name     string
		at       time.Duration
		from, to string
		size     int64
	}
	subs := []sub{
		{"loop", 0, "w1", "w1", 500},
		{"zero", 0, "submit", "w1", 0},
		{"a", 0, "submit", "w1", 100},
		{"b", 0, "submit", "w2", 100}, // contends with a at submit's egress
		{"c", 500 * time.Millisecond, "submit", "w1", 50},
		{"part", 1500 * time.Millisecond, "w1", "w2", 100}, // waits out the partition
		{"part0", 1500 * time.Millisecond, "w2", "w1", 0},
		{"free", 1500 * time.Millisecond, "w1", "submit", 100},
	}
	run := func(chained bool) []string {
		env := sim.NewEnv(1)
		n := newNet(env)
		var order []string
		note := func(name string) { order = append(order, name+"@"+env.Now().String()) }
		env.Go("ticker", func(p *sim.Proc) {
			for i := 0; i < 8; i++ {
				p.Sleep(500 * time.Millisecond)
				note("tick")
			}
		})
		env.At(time.Second, func() { n.partition("w1", "w2") })
		env.At(2*time.Second, func() { n.heal("w1", "w2") })
		for _, s := range subs {
			if chained {
				env.At(s.at, func() {
					env.Defer(func() {
						n.TransferThen(s.from, s.to, s.size, func() { note(s.name) })
					})
				})
				continue
			}
			env.At(s.at, func() {
				env.Go(s.name, func(p *sim.Proc) {
					transfer(p, n, s.from, s.to, s.size)
					note(s.name)
				})
			})
		}
		env.Run()
		return order
	}
	procs, chain := run(false), run(true)
	if !slices.Equal(procs, chain) {
		t.Errorf("chained order %v, blocking order %v", chain, procs)
	}
	if !slices.Contains(procs, "part@4.001s") || !slices.Contains(procs, "part0@2.001s") {
		t.Errorf("partitioned transfers did not wait for the heal: %v", procs)
	}
}

// TestTransferSteadyStateZeroAlloc: a process moving bytes in a loop,
// waiting on TransferThen with its resume, allocates nothing once the flow,
// job and event pools are warm: parking on the chained form adds no
// closure.
func TestTransferSteadyStateZeroAlloc(t *testing.T) {
	env := sim.NewEnv(1)
	n := newNet(env)
	env.Go("xfer", func(p *sim.Proc) {
		for {
			transfer(p, n, "submit", "w1", 100) // 1ms latency + 1s
		}
	})
	env.RunFor(10 * time.Second) // warm pools
	avg := testing.AllocsPerRun(100, func() {
		env.RunFor(time.Second + time.Millisecond)
	})
	if avg != 0 {
		t.Errorf("steady-state transfer allocates %.1f times per transfer, want 0", avg)
	}
}
