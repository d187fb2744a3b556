package crt

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/registry"
	"repro/internal/sim"
)

type fixture struct {
	env *sim.Env
	c   *cluster.Cluster
	reg *registry.Registry
	rt  *Runtime
	img registry.Image
	prm config.Params
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	env := sim.NewEnv(1)
	prm := config.Default()
	c := cluster.New(env, prm)
	reg := registry.New(c.Net)
	img := registry.NewImage("matmul", prm.ImageLayersBytes[:1], prm.ImageLayersBytes[1])
	reg.Push(img)
	rt := NewSet(env, c, reg, prm)[c.Workers[0].Name]
	return &fixture{env: env, c: c, reg: reg, rt: rt, img: img, prm: prm}
}

func TestPullImageCachesLayers(t *testing.T) {
	f := newFixture(t)
	f.env.Go("kubelet", func(p *sim.Proc) {
		if err := f.rt.PullImage(p, "matmul"); err != nil {
			t.Fatal(err)
		}
		first := p.Now()
		if first == 0 {
			t.Error("first pull was free")
		}
		if err := f.rt.PullImage(p, "matmul"); err != nil {
			t.Fatal(err)
		}
		if p.Now() != first {
			t.Error("second pull of cached image cost time")
		}
	})
	f.env.Run()
	if !f.rt.HasImage("matmul") {
		t.Error("image not in store after pull")
	}
	if f.reg.Pulls() != 2 {
		t.Errorf("layer pulls = %d, want 2", f.reg.Pulls())
	}
}

func TestPullSharedBaseLayerSkipped(t *testing.T) {
	f := newFixture(t)
	img2 := registry.NewImage("other", f.prm.ImageLayersBytes[:1], 1<<20)
	f.reg.Push(img2)
	f.env.Go("kubelet", func(p *sim.Proc) {
		if err := f.rt.PullImage(p, "matmul"); err != nil {
			t.Fatal(err)
		}
		before := f.reg.Pulls()
		if err := f.rt.PullImage(p, "other"); err != nil {
			t.Fatal(err)
		}
		if got := f.reg.Pulls() - before; got != 1 {
			t.Errorf("second image transferred %d layers, want 1 (base shared)", got)
		}
	})
	f.env.Run()
}

func TestPullUnknownImage(t *testing.T) {
	f := newFixture(t)
	f.env.Go("kubelet", func(p *sim.Proc) {
		if err := f.rt.PullImage(p, "ghost"); err == nil {
			t.Error("pull of unknown image succeeded")
		}
	})
	f.env.Run()
}

func TestLifecycleOverheads(t *testing.T) {
	f := newFixture(t)
	f.env.Go("job", func(p *sim.Proc) {
		if err := f.rt.PullImage(p, "matmul"); err != nil {
			t.Fatal(err)
		}
		start := p.Now()
		c, err := f.rt.create(p, nil, "matmul", 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Now() - start; got != f.prm.ContainerCreate {
			t.Errorf("create took %v, want %v", got, f.prm.ContainerCreate)
		}
		if err := c.start(p, nil); err != nil {
			t.Fatal(err)
		}
		if c.State() != StateRunning {
			t.Errorf("state = %v", c.State())
		}
		before := p.Now()
		if err := c.exec(p, nil, 2); err != nil { // 2 core-seconds capped at 1
			t.Fatal(err)
		}
		if got := p.Now() - before; got != 2*time.Second {
			t.Errorf("capped exec took %v, want 2s", got)
		}
		if err := c.stopRemove(p, nil); err != nil {
			t.Fatal(err)
		}
	})
	f.env.Run()
	if f.rt.Live() != 0 || f.rt.CreatedTotal() != 1 || f.rt.removedTotal != 1 {
		t.Errorf("live=%d created=%d removed=%d", f.rt.Live(), f.rt.CreatedTotal(), f.rt.removedTotal)
	}
}

func TestCreateRequiresImage(t *testing.T) {
	f := newFixture(t)
	f.env.Go("job", func(p *sim.Proc) {
		if _, err := f.rt.create(p, nil, "matmul", 0); err == nil {
			t.Error("create without local image succeeded")
		}
	})
	f.env.Run()
}

func TestExecStateErrors(t *testing.T) {
	f := newFixture(t)
	f.env.Go("job", func(p *sim.Proc) {
		if err := f.rt.PullImage(p, "matmul"); err != nil {
			t.Fatal(err)
		}
		c, _ := f.rt.create(p, nil, "matmul", 0)
		if err := c.exec(p, nil, 1); err == nil {
			t.Error("exec before start succeeded")
		}
		_ = c.start(p, nil)
		_ = c.stopRemove(p, nil)
		if err := c.exec(p, nil, 1); err == nil {
			t.Error("exec after remove succeeded")
		}
		if err := c.stopRemove(p, nil); err == nil {
			t.Error("double remove succeeded")
		}
		if err := c.start(p, nil); err == nil {
			t.Error("start after remove succeeded")
		}
	})
	f.env.Run()
}

func TestContainerReuseCountsExecs(t *testing.T) {
	f := newFixture(t)
	f.env.Go("fn", func(p *sim.Proc) {
		_ = f.rt.PullImage(p, "matmul")
		c, _ := f.rt.create(p, nil, "matmul", 0)
		_ = c.start(p, nil)
		for i := 0; i < 5; i++ {
			if err := c.exec(p, nil, 0.1); err != nil {
				t.Fatal(err)
			}
		}
	})
	f.env.Run()
	if f.rt.CreatedTotal() != 1 {
		t.Errorf("reuse created %d containers, want 1", f.rt.CreatedTotal())
	}
}

func TestDockerRunChargesFullLifecycle(t *testing.T) {
	f := newFixture(t)
	var elapsed time.Duration
	f.env.Go("cli", func(p *sim.Proc) {
		_ = f.rt.PullImage(p, "matmul")
		start := p.Now()
		if err := f.rt.DockerRun(p, "matmul", 0.44, 0); err != nil {
			t.Fatal(err)
		}
		elapsed = p.Now() - start
	})
	f.env.Run()
	overhead := f.prm.DockerCLI + f.prm.ContainerCreate + f.prm.ContainerStart + f.prm.ContainerStopRemove
	want := overhead + 440*time.Millisecond
	if elapsed != want {
		t.Errorf("DockerRun took %v, want %v", elapsed, want)
	}
}

func TestImportImageChargesUnpack(t *testing.T) {
	f := newFixture(t)
	f.env.Go("job", func(p *sim.Proc) {
		start := p.Now()
		f.rt.ImportImageThen(nil, f.img, p.Resumer())
		p.Await()
		unpack := p.Now() - start
		wantSecs := float64(f.img.Bytes()) / f.prm.ImageLoadBps
		if got := unpack.Seconds(); got < wantSecs*0.99 || got > wantSecs*1.01 {
			t.Errorf("import took %v, want ~%.2fs", unpack, wantSecs)
		}
		if !f.rt.HasImage("matmul") {
			t.Error("image absent after import")
		}
		if _, err := f.rt.create(p, nil, "matmul", 0); err != nil {
			t.Errorf("create after import: %v", err)
		}
	})
	f.env.Run()
}
