package knative

import (
	"slices"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/sim"
)

// crashNode crashes the named node from now for d (for good when d is 0),
// by the path a node-crash fault takes: kube drains the node, cordoning it
// and evicting its pods, and uncordons it when the window ends. It returns
// once the crash has begun.
func (f *fixture) crashNode(p *sim.Proc, name string, d time.Duration) {
	in := faults.NewInjector(f.env)
	f.k.AttachFaults(in)
	in.Schedule(faults.Fault{Kind: faults.KindNodeCrash, At: p.Now(), Duration: d, Target: name})
	p.Sleep(time.Nanosecond) // the crash is an event at now
}

// TestServiceSurvivesNodeDrain: a node under maintenance is drained; the
// autoscaler replaces the killed replicas on the remaining nodes and the
// service keeps serving.
func TestServiceSurvivesNodeDrain(t *testing.T) {
	f := newFixture(t)
	var servedAfter int
	f.env.Go("main", func(p *sim.Proc) {
		defer f.kn.Shutdown()
		f.prePull(p)
		spec := baseSpec()
		spec.MinScale = 3
		spec.InitialScale = 3
		svc, err := f.kn.Deploy(p, spec)
		if err != nil {
			t.Error(err)
			return
		}
		// Drain the node hosting the first replica.
		drainedNode := f.cl.Workers[0].Name
		if !slices.Contains(svcPods(svc), drainedNode) {
			t.Errorf("no replica on %s: the drain would evict nothing", drainedNode)
		}
		f.crashNode(p, drainedNode, 0)
		// The autoscaler needs a tick to notice and replace the pods.
		p.Sleep(4 * f.prm.AutoscalerTick)
		if n := svc.ReadyPods(); n < 3 {
			t.Errorf("ReadyPods = %d after drain+recovery, want min-scale 3", n)
		}
		// Replacement pods must avoid the cordoned node.
		for i := 0; i < 6; i++ {
			resp, err := svc.Invoke(p, req(0.1))
			if err != nil {
				t.Error(err)
				return
			}
			if resp.PodNode == drainedNode {
				t.Errorf("request served on drained node %s", drainedNode)
			}
			servedAfter++
		}
		if slices.Contains(svcPods(svc), drainedNode) {
			t.Errorf("pods remain on drained node")
		}
	})
	f.env.RunUntil(10 * time.Minute)
	if servedAfter != 6 {
		t.Fatalf("served %d requests after drain", servedAfter)
	}
}

// TestUncordonRestoresScheduling: after uncordon, new pods may land on the
// node again.
func TestUncordonRestoresScheduling(t *testing.T) {
	f := newFixture(t)
	f.env.Go("main", func(p *sim.Proc) {
		defer f.kn.Shutdown()
		f.prePull(p)
		name := f.cl.Workers[0].Name
		const window = 5 * time.Minute
		end := p.Now() + window
		f.crashNode(p, name, window)
		spec := baseSpec()
		spec.MinScale = 3
		spec.InitialScale = 3
		svc, err := f.kn.Deploy(p, spec)
		if err != nil {
			t.Error(err)
			return
		}
		if slices.Contains(svcPods(svc), name) {
			t.Errorf("pod scheduled on cordoned node")
		}
		if p.Now() >= end {
			t.Errorf("deploy ended at %v, after the cordon window", p.Now())
			return
		}
		p.Sleep(end - p.Now()) // the node is uncordoned at end
		spec2 := baseSpec()
		spec2.Name = "matmul2"
		spec2.MinScale = 3
		spec2.InitialScale = 3
		svc2, err := f.kn.Deploy(p, spec2)
		if err != nil {
			t.Error(err)
			return
		}
		if !slices.Contains(svcPods(svc2), name) {
			t.Error("no pod landed on uncordoned node")
		}
	})
	f.env.Run()
}

// svcPods lists the nodes of a service's current replicas.
func svcPods(svc *Service) []string {
	var nodes []string
	for _, h := range svc.pods {
		nodes = append(nodes, h.pod.NodeName)
	}
	return nodes
}
