package registry

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/sim"
)

func newCluster(t *testing.T) (*sim.Env, *cluster.Cluster, *Registry) {
	t.Helper()
	env := sim.NewEnv(1)
	cl := cluster.New(env, config.Default())
	return env, cl, New(cl.Net)
}

// pullLayers waits in a process on PullLayersThen: the process's resume
// ends the wait, then one park.
func pullLayers(p *sim.Proc, reg *Registry, node string, img Image, missing []Layer) (err error) {
	resume := p.Resumer()
	reg.PullLayersThen(nil, node, img, missing, func(e error) { err = e; resume() })
	p.Await()
	return err
}

func TestPushAndLookup(t *testing.T) {
	_, _, reg := newCluster(t)
	img := NewImage("app", []int64{10 << 20}, 2<<20)
	reg.Push(img)
	got, ok := reg.Image("app")
	if !ok || got.Name != "app" {
		t.Fatalf("lookup = %+v, %v", got, ok)
	}
	if _, ok := reg.Image("ghost"); ok {
		t.Error("phantom image found")
	}
}

func TestImageBytesSumsLayers(t *testing.T) {
	img := NewImage("app", []int64{10, 20}, 5)
	if img.Bytes() != 35 {
		t.Errorf("Bytes = %d, want 35", img.Bytes())
	}
	if len(img.Layers) != 3 {
		t.Errorf("layers = %d, want 3", len(img.Layers))
	}
}

func TestSharedBaseDigestsAcrossImages(t *testing.T) {
	a := NewImage("a", []int64{10 << 20}, 1)
	b := NewImage("b", []int64{10 << 20}, 1)
	if a.Layers[0].Digest != b.Layers[0].Digest {
		t.Error("identical base layers have different digests")
	}
	if a.Layers[1].Digest == b.Layers[1].Digest {
		t.Error("distinct app layers share a digest")
	}
}

func TestPullLayersChargesNetworkTime(t *testing.T) {
	env, _, reg := newCluster(t)
	img := NewImage("app", []int64{100 << 20}, 10<<20)
	reg.Push(img)
	env.Go("pull", func(p *sim.Proc) {
		start := p.Now()
		if err := pullLayers(p, reg, "worker1", img, img.Layers); err != nil {
			t.Fatal(err)
		}
		elapsed := p.Now() - start
		// 110 MB at the 250 MB/s registry rate ≈ 0.46 s.
		if elapsed < 300*time.Millisecond || elapsed > 2*time.Second {
			t.Errorf("pull took %v", elapsed)
		}
	})
	env.Run()
	if reg.Pulls() != 2 {
		t.Errorf("Pulls = %d, want 2", reg.Pulls())
	}
}

func TestPullUnknownImageFails(t *testing.T) {
	env, _, reg := newCluster(t)
	img := NewImage("never-pushed", []int64{1}, 1)
	env.Go("pull", func(p *sim.Proc) {
		if err := pullLayers(p, reg, "worker1", img, img.Layers); err == nil {
			t.Error("pull of unpushed image succeeded")
		}
	})
	env.Run()
}

func TestPullNoMissingLayersIsFree(t *testing.T) {
	env, _, reg := newCluster(t)
	img := NewImage("app", []int64{100 << 20}, 10<<20)
	reg.Push(img)
	env.Go("pull", func(p *sim.Proc) {
		if err := pullLayers(p, reg, "worker1", img, nil); err != nil {
			t.Fatal(err)
		}
		if p.Now() != 0 {
			t.Errorf("empty pull took %v", p.Now())
		}
	})
	env.Run()
}
