package knative

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/crt"
	"repro/internal/kube"
	"repro/internal/registry"
	"repro/internal/sim"
)

// routes are the replica-routing policies a service accepts.
var routes = []RoutePolicy{RouteLeastRequests, RouteLeastNodeLoad}

// refDecision is the outcome of one reference routing decision.
type refDecision struct {
	best, feasible, visited int
	score, value            float64 // total, and the route's raw term
	name                    string  // the route's term name
}

// referenceRoute is the router as a plain loop of a filter and one score
// plugin — the form knative evaluated through the plugin framework before
// it was fused into evalReplica. Every replica is visited in rotation order
// from offset; ready replicas with a free slot pass; the term is minus
// the replica's in-flight requests, or minus its node's CPU queue length
// ×1e6 plus those under least-node-load, with the node looked up by name;
// the total is the term summed from 0; a strictly higher total displaces
// the incumbent. rejects counts the filter's rejections by cause.
func referenceRoute(s *Service, offset int, rejects map[string]int) refDecision {
	n := len(s.pods)
	d := refDecision{best: -1}
	for v := 0; v < n; v++ {
		i := (offset + v) % n
		h := s.pods[i]
		d.visited++
		switch {
		case !h.pod.Ready():
			rejects["ready"]++
			continue
		case h.free <= 0:
			rejects["capacity"]++
			continue
		}
		d.feasible++
		name, value := "least-requests", -float64(h.inFlight)
		if s.spec.Routing == RouteLeastNodeLoad {
			node := s.kn.cl.MustNode(h.pod.NodeName)
			name, value = "least-node-load", -(float64(node.CPU.Load())*1e6 + float64(h.inFlight))
		}
		total := 0.0
		total += 1 * value
		if d.best < 0 || total > d.score {
			d.best, d.score, d.value, d.name = i, total, value, name
		}
	}
	return d
}

// routeChecker compares the router's fused pick with the reference loop.
type routeChecker struct {
	t       *testing.T
	s       *Service
	rejects map[string]int
	checks  int
	routed  int // decisions with a winner
	zeroSum int // decisions whose winner's total was +0 and its term −0
	loaded  int // decisions whose winner's node had CPU load
}

// check routes both ways at the current state and the given rotation
// offset, leaving the router's own rotation untouched.
func (c *routeChecker) check(offset int) {
	t, s := c.t, c.s
	t.Helper()
	c.checks++
	save := s.rr
	s.rr = offset - 1 // pickReplica advances before it scans
	best, feasible, visited := s.pickReplica()
	s.rr = save
	want := referenceRoute(s, offset, c.rejects)
	where := fmt.Sprintf("%s offset=%d", s.spec.Routing, offset)
	if best != want.best || feasible != want.feasible || visited != want.visited {
		t.Fatalf("%s: winner/feasible/visited %d/%d/%d, reference %d/%d/%d", where,
			best, feasible, visited, want.best, want.feasible, want.visited)
	}
	if best < 0 {
		return
	}
	c.routed++
	got := s.decision(best, feasible)
	if node := s.pods[want.best].pod.NodeName; got.Node != node || got.Feasible != want.feasible {
		t.Fatalf("%s: decision node %s feasible %d, reference %s %d", where, got.Node, got.Feasible, node, want.feasible)
	}
	if math.Float64bits(got.Score) != math.Float64bits(want.score) {
		t.Fatalf("%s: score %v (%#x), reference %v (%#x)", where,
			got.Score, math.Float64bits(got.Score), want.score, math.Float64bits(want.score))
	}
	if len(got.PerPlugin) != 1 || got.PerPlugin[0].Plugin != want.name ||
		math.Float64bits(got.PerPlugin[0].Value) != math.Float64bits(want.value) {
		t.Fatalf("%s: per-plugin %+v, reference %s %v", where, got.PerPlugin, want.name, want.value)
	}
	if math.Float64bits(got.Score) == 0 && math.Float64bits(want.value) == 1<<63 {
		c.zeroSum++
	}
	if want.value <= -1e6 {
		c.loaded++
	}
}

// newRouteFixture is a four-worker stack with the image pre-pushed.
func newRouteFixture(t *testing.T) *fixture {
	t.Helper()
	env := sim.NewEnv(1)
	prm := config.Default()
	prm.WorkerNodes = 4
	cl := cluster.New(env, prm)
	reg := registry.New(cl.Net)
	reg.Push(registry.NewImage("matmul", prm.ImageLayersBytes[:1], prm.ImageLayersBytes[1]))
	k := kube.New(env, cl, crt.NewSet(env, cl, reg, prm), prm)
	k.Start()
	return &fixture{env: env, cl: cl, k: k, kn: New(env, cl, k, prm), prm: prm}
}

// TestFusedRoutingMatchesReference is the differential gate on the router's
// fused evaluation: under both routes, over a seeded churn of request
// bursts that saturate the replicas' request slots and drive the
// autoscaler to scale up, and pod kills that the autoscaler replaces, the
// fused evaluation and the plugin-loop reference agree on the winner, the
// feasible and visited counts, and the total and per-plugin scores bit for
// bit, at the router's next offset and at a random one.
func TestFusedRoutingMatchesReference(t *testing.T) {
	for _, route := range routes {
		t.Run(route.String(), func(t *testing.T) { routeChurn(t, route) })
	}
}

func routeChurn(t *testing.T, route RoutePolicy) {
	f := newRouteFixture(t)
	rng := rand.New(rand.NewSource(int64(route) + 1))
	spec := baseSpec()
	spec.ContainerConcurrency = 2
	spec.MinScale = 1
	spec.InitialScale = 2
	spec.MaxScale = 8
	spec.Routing = route
	var c *routeChecker
	maxPods := 0
	f.env.Go("churn", func(p *sim.Proc) {
		f.prePull(p)
		svc, err := f.kn.Deploy(p, spec)
		if err != nil {
			t.Error(err)
			return
		}
		c = &routeChecker{t: t, s: svc, rejects: make(map[string]int)}
		probe := func() {
			c.check(svc.rr + 1)
			c.check(rng.Intn(32))
			maxPods = max(maxPods, len(svc.pods))
		}
		for step := 0; step < 300; step++ {
			switch r := rng.Intn(10); {
			case r < 5:
				for n := 1 + rng.Intn(6); n > 0; n-- {
					work := 0.2 + 2*rng.Float64()
					f.env.Go("invoke", func(ip *sim.Proc) { svc.Invoke(ip, req(work)) })
				}
			case r == 5:
				svc.killOnePod()
			default:
				p.Sleep(time.Duration(rng.Intn(1500)) * time.Millisecond)
			}
			p.Sleep(time.Millisecond)
			probe()
		}
		f.kn.Shutdown()
	})
	f.env.Run()
	if c == nil {
		return
	}
	for _, cause := range []string{"ready", "capacity"} {
		if c.rejects[cause] == 0 {
			t.Errorf("churn never made a replica fail the %s check", cause)
		}
	}
	if maxPods <= spec.InitialScale {
		t.Errorf("service never scaled up: at most %d replicas", maxPods)
	}
	if c.zeroSum == 0 {
		t.Error("no decision hit the +0 total / −0 term case")
	}
	if route == RouteLeastNodeLoad && c.loaded == 0 {
		t.Error("no decision's winner sat on a loaded node")
	}
	t.Logf("%d decisions compared, %d routed, %d at ±0, %d loaded, up to %d replicas; rejections %v",
		c.checks, c.routed, c.zeroSum, c.loaded, maxPods, c.rejects)
}

// TestPickAvailableAllocatesNothing: an untraced pick-and-claim allocates
// nothing under either route.
func TestPickAvailableAllocatesNothing(t *testing.T) {
	for _, route := range routes {
		f := newFixture(t)
		f.env.Go("main", func(p *sim.Proc) {
			f.prePull(p)
			svc, err := f.kn.Deploy(p, spreadSpec(route))
			if err != nil {
				t.Error(err)
				return
			}
			allocs := testing.AllocsPerRun(100, func() {
				h := svc.pickAvailable(nil)
				h.free++
			})
			if allocs != 0 {
				t.Errorf("%s: %v allocations per pick, want 0", route, allocs)
			}
			f.kn.Shutdown()
		})
		f.env.Run()
	}
}

// TestDeployRejectsUnknownRouting: a Routing outside the defined policies
// fails Deploy with an error naming the field and the valid values, instead
// of silently routing least-requests.
func TestDeployRejectsUnknownRouting(t *testing.T) {
	for _, route := range []RoutePolicy{-1, 2} {
		f := newFixture(t)
		f.env.Go("main", func(p *sim.Proc) {
			spec := baseSpec()
			spec.Routing = route
			_, err := f.kn.Deploy(p, spec)
			want := fmt.Sprintf("knative: deploy matmul: unknown Routing %d (valid: 0 least-requests, 1 least-node-load)", route)
			if err == nil || err.Error() != want {
				t.Errorf("Routing %d: err %v, want %q", route, err, want)
			}
			if _, ok := f.kn.Service("matmul"); ok {
				t.Errorf("Routing %d: rejected service was registered", route)
			}
			f.kn.Shutdown()
		})
		f.env.Run()
	}
	if got := RoutePolicy(7).String(); !strings.Contains(got, "7") {
		t.Errorf("RoutePolicy(7).String() = %q", got)
	}
}

// TestWarmInvokeAllocatesNothing: with no tracer attached, an invocation
// served by a warm replica allocates nothing, span labels included.
func TestWarmInvokeAllocatesNothing(t *testing.T) {
	f := newFixture(t)
	f.env.Go("main", func(p *sim.Proc) {
		f.prePull(p)
		spec := baseSpec()
		spec.InitialScale = 1
		svc, err := f.kn.Deploy(p, spec)
		if err != nil {
			t.Error(err)
			return
		}
		r := req(0.01)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := svc.Invoke(p, r); err != nil {
				t.Error(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v allocations per warm untraced Invoke, want 0", allocs)
		}
		f.kn.Shutdown()
	})
	f.env.Run()
}
