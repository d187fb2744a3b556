package storage

import (
	"testing"
	"time"

	"repro/internal/fluid"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func testNet(env *sim.Env) *simnet.Network {
	n := simnet.New(env, time.Millisecond)
	n.AddNode("submit", 1000)
	n.AddNode("w1", 1000)
	return n
}

// The helpers below wait in a process on the storage ops' continuation
// forms: the process's resume is the continuation, then one park.

func io(p *sim.Proc, d *fluid.Server, size int64) {
	d.RunReservedThen(float64(size), 0, 0, p.Resumer())
	p.Await()
}

func put(p *sim.Proc, s *Scratch, name string, size int64) {
	s.PutThen(name, size, p.Resumer())
	p.Await()
}

func get(p *sim.Proc, s *Scratch, name string) (size int64, err error) {
	resume := p.Resumer()
	s.GetThen(name, func(n int64, e error) { size, err = n, e; resume() })
	p.Await()
	return size, err
}

func write(p *sim.Proc, fs *SharedFS, node, name string, size int64) {
	fs.WriteThen(nil, node, name, size, p.Resumer())
	p.Await()
}

func read(p *sim.Proc, fs *SharedFS, node, name string) (size int64, err error) {
	resume := p.Resumer()
	fs.ReadThen(nil, node, name, func(n int64, e error) { size, err = n, e; resume() })
	p.Await()
	return size, err
}

func storePut(p *sim.Proc, o *ObjectStore, node, bucket, key string, size int64) (err error) {
	resume := p.Resumer()
	o.PutThen(nil, node, bucket, key, size, func(e error) { err = e; resume() })
	p.Await()
	return err
}

func storeGet(p *sim.Proc, o *ObjectStore, node, bucket, key string) (size int64, err error) {
	resume := p.Resumer()
	o.GetThen(nil, node, bucket, key, func(n int64, e error) { size, err = n, e; resume() })
	p.Await()
	return size, err
}

func TestDiskReadWriteTiming(t *testing.T) {
	env := sim.NewEnv(1)
	d := NewDisk(env, "d", 100)
	env.Go("io", func(p *sim.Proc) {
		io(p, d, 50)
		io(p, d, 150)
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
			io(p, d, 100)
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
		put(p, s, "a.dat", 500)
		if !s.Has("a.dat") {
			t.Error("Has after Put is false")
		}
		sz, err := get(p, s, "a.dat")
		if err != nil || sz != 500 {
			t.Errorf("Get = %d, %v", sz, err)
		}
		if _, err := get(p, s, "missing"); err == nil {
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
		write(p, fs, "w1", "out.dat", 1000)
		// transfer 1000B @1000B/s = 1s + 1ms latency; disk write 1s.
		wrote := p.Now() - start
		want := 2*time.Second + time.Millisecond
		if wrote != want {
			t.Errorf("remote write took %v, want %v", wrote, want)
		}
		sz, err := read(p, fs, "w1", "out.dat")
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
		if _, err := read(p, fs, "submit", "in.dat"); err != nil {
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
		if _, err := read(p, fs, "w1", "ghost"); err == nil {
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
