package cplane

import (
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/sim"
)

func params(mutate func(*config.Params)) config.Params {
	prm := config.Default()
	if mutate != nil {
		mutate(&prm)
	}
	return prm
}

// TestInactivePlaneIsFree: the default (zero-valued) knobs reproduce the
// seed's free control plane — no delays, no state, no counters.
func TestInactivePlaneIsFree(t *testing.T) {
	for _, mode := range []string{"", "baseline", "direct"} {
		env := sim.NewEnv(1)
		cp := New(env, params(func(p *config.Params) { p.CPMode = mode }))
		if cp.active() {
			t.Fatalf("mode %q: zero-valued plane is active", mode)
		}
		delays := []time.Duration{
			cp.BindDelay(), cp.DeleteDelay(), cp.StatusDelay(),
			cp.MetricReadDelay(), cp.ScaleWriteDelay(),
		}
		for i, d := range delays {
			if d != 0 {
				t.Errorf("mode %q: delay %d = %v, want 0", mode, i, d)
			}
		}
		if st := cp.Stats(); st != (Stats{}) {
			t.Errorf("mode %q: inactive plane mutated stats: %+v", mode, st)
		}
	}
}

// TestUnknownModePanics: an unparseable CPMode must halt construction, not
// degrade to the free control plane.
func TestUnknownModePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted CPMode=bogus")
		}
	}()
	New(sim.NewEnv(1), params(func(p *config.Params) { p.CPMode = "bogus" }))
}

// TestStoreQueueArithmetic pins the baseline path's virtual-time FIFO
// queue: back-to-back requests at one instant each wait behind the
// previous one's apiserver occupancy, writes add the commit, and
// propagation adds the watch delay.
func TestStoreQueueArithmetic(t *testing.T) {
	env := sim.NewEnv(1)
	cp := New(env, params(func(p *config.Params) {
		p.CPMode = "baseline"
		p.APIServerQPS = 10 // svc = 100ms
		p.APIServerLatency = 5 * time.Millisecond
		p.EtcdCommitLatency = 20 * time.Millisecond
		p.WatchLatency = 50 * time.Millisecond
	}))
	if !cp.active() {
		t.Fatal("plane with nonzero constants is inactive")
	}
	// First write at t=0: no wait + 100ms svc + 5ms base + 20ms commit +
	// 50ms watch.
	if d, want := cp.BindDelay(), 175*time.Millisecond; d != want {
		t.Errorf("first bind delay = %v, want %v", d, want)
	}
	// Second write queues behind the first: +100ms wait.
	if d, want := cp.BindDelay(), 275*time.Millisecond; d != want {
		t.Errorf("second bind delay = %v, want %v", d, want)
	}
	// A read queues behind both writes but pays no commit or watch.
	if d, want := cp.MetricReadDelay(), 305*time.Millisecond; d != want {
		t.Errorf("read delay = %v, want %v", d, want)
	}
	st := cp.Stats()
	if st.Writes != 2 || st.Reads != 1 || st.AsyncWrites != 0 || st.DirectSends != 0 {
		t.Errorf("stats = %+v, want 2 writes, 1 read, nothing direct", st)
	}
	if st.QueueWait != 300*time.Millisecond || st.MaxQueueWait != 200*time.Millisecond {
		t.Errorf("queue wait total %v max %v, want 300ms / 200ms", st.QueueWait, st.MaxQueueWait)
	}
}

// TestStoreQueueDrains: the queue is virtual — once simulated time passes
// busyUntil, a new request waits nothing.
func TestStoreQueueDrains(t *testing.T) {
	env := sim.NewEnv(1)
	cp := New(env, params(func(p *config.Params) {
		p.CPMode = "baseline"
		p.APIServerQPS = 10
	}))
	cp.BindDelay() // occupies the server until t=100ms
	var late time.Duration
	env.After(time.Second, func() { late = cp.BindDelay() })
	env.Run()
	if want := 100 * time.Millisecond; late != want {
		t.Errorf("post-drain bind delay = %v, want %v (no queue wait)", late, want)
	}
	if st := cp.Stats(); st.QueueWait != 0 {
		t.Errorf("queue wait = %v, want 0", st.QueueWait)
	}
}

// TestDirectPathCosts: direct mode charges only the network's one-way
// latency, never touches the apiserver queue, and books the asynchronous
// reconciliation writes for mutating messages.
func TestDirectPathCosts(t *testing.T) {
	env := sim.NewEnv(1)
	cp := New(env, params(func(p *config.Params) {
		p.CPMode = "direct"
		p.APIServerQPS = 10
		p.EtcdCommitLatency = 20 * time.Millisecond
		p.WatchLatency = 50 * time.Millisecond
		p.NetLatency = 200 * time.Microsecond
	}))
	for i := 0; i < 3; i++ {
		if d := cp.BindDelay(); d != 200*time.Microsecond {
			t.Fatalf("bind %d delay = %v, want NetLatency (no queueing)", i, d)
		}
	}
	if d := cp.MetricReadDelay(); d != 200*time.Microsecond {
		t.Errorf("metric read delay = %v, want NetLatency", d)
	}
	st := cp.Stats()
	if st.Writes != 0 || st.Reads != 0 {
		t.Errorf("direct mode issued store requests: %+v", st)
	}
	if st.DirectSends != 4 || st.AsyncWrites != 3 {
		t.Errorf("stats = %+v, want 4 direct sends, 3 async writes", st)
	}
	if cp.mode != config.CPDirect {
		t.Errorf("mode = %v, want direct", cp.mode)
	}
}
