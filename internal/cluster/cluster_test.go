package cluster

import (
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/sim"
)

func TestNewBuildsPaperTopology(t *testing.T) {
	env := sim.NewEnv(1)
	c := New(env, config.Default())
	submit, ok := c.Node(SubmitNodeName)
	if !ok || submit.Name != SubmitNodeName {
		t.Fatal("no submit node")
	}
	if len(c.Workers) != 3 {
		t.Fatalf("workers = %d, want 3", len(c.Workers))
	}
	for i, w := range c.Workers {
		if w.Cores != 8 || w.MemMB != 32*1024 {
			t.Errorf("worker %s: %d cores %d MB, want 8 cores 32768 MB", w.Name, w.Cores, w.MemMB)
		}
		if w.Index != i {
			t.Errorf("worker %s: Index %d, want its position %d", w.Name, w.Index, i)
		}
	}
	if submit.Index != -1 {
		t.Errorf("submit Index %d, want -1", submit.Index)
	}
	if !c.Net.HasNode(RegistryNodeName) {
		t.Error("registry endpoint missing from network")
	}
}

func TestNodeLookup(t *testing.T) {
	env := sim.NewEnv(1)
	c := New(env, config.Default())
	if n, ok := c.Node("worker2"); !ok || n.Name != "worker2" {
		t.Error("worker2 lookup failed")
	}
	if _, ok := c.Node("worker9"); ok {
		t.Error("phantom node found")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNode of unknown did not panic")
		}
	}()
	c.MustNode("worker9")
}

func TestNativeContention(t *testing.T) {
	// Two uncapped 8-core-second tasks on an 8-core node: they share and
	// both take 2 s — the "no isolation" corner of the paper's triangle.
	env := sim.NewEnv(1)
	c := New(env, config.Default())
	w := c.Workers[0]
	var done [2]time.Duration
	for i := 0; i < 2; i++ {
		i := i
		env.Go("task", func(p *sim.Proc) {
			w.Exec(p, 8, 0)
			done[i] = p.Now()
		})
	}
	env.Run()
	for i, d := range done {
		if d != 2*time.Second {
			t.Errorf("task %d at %v, want 2s", i, d)
		}
	}
}

func TestCappedIsolation(t *testing.T) {
	// A capped 1-core task is unaffected by an uncapped hog on the same
	// 8-core node: predictable completion, the container promise.
	env := sim.NewEnv(1)
	c := New(env, config.Default())
	w := c.Workers[0]
	var capped time.Duration
	env.Go("hog", func(p *sim.Proc) { w.Exec(p, 80, 0) })
	env.Go("capped", func(p *sim.Proc) {
		w.Exec(p, 2, 1)
		capped = p.Now()
	})
	env.Run()
	if capped != 2*time.Second {
		t.Errorf("capped task at %v, want 2s despite hog", capped)
	}
}

func TestMemoryAccounting(t *testing.T) {
	env := sim.NewEnv(1)
	c := New(env, config.Default())
	w := c.Workers[0]
	if err := w.ReserveMem(30 * 1024); err != nil {
		t.Fatal(err)
	}
	if err := w.ReserveMem(4 * 1024); err == nil {
		t.Error("over-reservation accepted")
	}
	w.ReleaseMem(30 * 1024)
	if w.MemUsedMB() != 0 {
		t.Errorf("MemUsedMB = %d", w.MemUsedMB())
	}
}

func TestTaskWorkDrift(t *testing.T) {
	env := sim.NewEnv(1)
	p := config.Default()
	p.TaskJitterFrac = 0 // isolate the drift term
	c := New(env, p)
	w0 := c.NextTaskWork()
	for i := 0; i < 99; i++ {
		c.NextTaskWork()
	}
	w100 := c.NextTaskWork()
	if w0 != p.TaskCoreSeconds {
		t.Errorf("first task work = %f", w0)
	}
	if w100 <= w0 {
		t.Errorf("no drift: task 0 %f vs task 100 %f", w0, w100)
	}
	if c.TasksExecuted != 101 {
		t.Errorf("TasksExecuted = %d", c.TasksExecuted)
	}
}
