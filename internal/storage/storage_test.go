package storage

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
)

func testNet(env *sim.Env) *simnet.Network {
	n := simnet.New(env, time.Millisecond)
	n.AddNode("submit", 1000)
	n.AddNode("w1", 1000)
	return n
}

func TestDiskReadWriteTiming(t *testing.T) {
	env := sim.NewEnv(1)
	d := NewDisk(env, "d", 100)
	env.Go("io", func(p *sim.Proc) {
		d.write(p, 50)
		d.read(p, 150)
		if p.Now() != 2*time.Second {
			t.Errorf("I/O took %v, want 2s", p.Now())
		}
	})
	env.Run()
}

func TestDiskSharesBandwidth(t *testing.T) {
	env := sim.NewEnv(1)
	d := NewDisk(env, "d", 100)
	var done [2]time.Duration
	for i := 0; i < 2; i++ {
		i := i
		env.Go("io", func(p *sim.Proc) {
			d.read(p, 100)
			done[i] = p.Now()
		})
	}
	env.Run()
	for i, dn := range done {
		if dn != 2*time.Second {
			t.Errorf("read %d finished at %v, want 2s", i, dn)
		}
	}
}

func TestScratchPutGet(t *testing.T) {
	env := sim.NewEnv(1)
	d := NewDisk(env, "d", 1000)
	s := NewScratch("w1", d)
	env.Go("job", func(p *sim.Proc) {
		s.Put(p, "a.dat", 500)
		if !s.Has("a.dat") {
			t.Error("Has after Put is false")
		}
		sz, err := s.Get(p, "a.dat")
		if err != nil || sz != 500 {
			t.Errorf("Get = %d, %v", sz, err)
		}
		if _, err := s.Get(p, "missing"); err == nil {
			t.Error("Get of missing file succeeded")
		}
	})
	env.Run()
}

func TestSharedFSRemoteRoundTrip(t *testing.T) {
	env := sim.NewEnv(1)
	net := testNet(env)
	fs := NewSharedFS(env, net, "submit", 1000)
	env.Go("job", func(p *sim.Proc) {
		start := p.Now()
		fs.Write(p, nil, "w1", "out.dat", 1000)
		// transfer 1000B @1000B/s = 1s + 1ms latency; disk write 1s.
		wrote := p.Now() - start
		want := 2*time.Second + time.Millisecond
		if wrote != want {
			t.Errorf("remote write took %v, want %v", wrote, want)
		}
		sz, err := fs.Read(p, nil, "w1", "out.dat")
		if err != nil || sz != 1000 {
			t.Fatalf("Read = %d, %v", sz, err)
		}
	})
	env.Run()
	if !fs.Has("out.dat") {
		t.Error("file missing after write")
	}
}

func TestSharedFSLocalAccessSkipsNetwork(t *testing.T) {
	env := sim.NewEnv(1)
	net := testNet(env)
	fs := NewSharedFS(env, net, "submit", 1000)
	fs.Touch("in.dat", 1000)
	env.Go("job", func(p *sim.Proc) {
		if _, err := fs.Read(p, nil, "submit", "in.dat"); err != nil {
			t.Fatal(err)
		}
		if p.Now() != time.Second { // disk only, no latency/transfer
			t.Errorf("local read took %v, want 1s", p.Now())
		}
	})
	env.Run()
}

func TestSharedFSMissingFile(t *testing.T) {
	env := sim.NewEnv(1)
	net := testNet(env)
	fs := NewSharedFS(env, net, "submit", 1000)
	env.Go("job", func(p *sim.Proc) {
		if _, err := fs.Read(p, nil, "w1", "ghost"); err == nil {
			t.Error("read of missing file succeeded")
		}
	})
	env.Run()
	if _, ok := fs.files["ghost"]; ok {
		t.Error("failed read created the missing file")
	}
}

func TestSharedFSUnknownHostPanics(t *testing.T) {
	env := sim.NewEnv(1)
	net := testNet(env)
	defer func() {
		if recover() == nil {
			t.Error("no panic for unknown host")
		}
	}()
	NewSharedFS(env, net, "elsewhere", 1000)
}
