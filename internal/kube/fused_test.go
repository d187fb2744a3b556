package kube

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/sched"
	"repro/internal/sim"
)

// kubePolicies are the placement policies kube accepts.
var kubePolicies = []string{sched.PolicyLeastRequested, sched.PolicyBinPack, sched.PolicySpread, sched.PolicyImageLocality}

func podRequest(spec PodSpec) sched.Request {
	return sched.Request{Name: spec.Name, Image: spec.Image, CPURequest: spec.CPURequest, MemMB: spec.MemMB}
}

// referencePolicy is kube's placement as a plain sched.Policy of plugin
// closures over the name-keyed public state — the form kube evaluated
// through Policy.Pick before its filters and scores were fused into
// evalNode. rejects counts each filter's rejections, so a test can prove its
// churn reached every filter.
func referencePolicy(k *Kube, rejects map[string]int) sched.Policy {
	filter := func(name string, fit func(req sched.Request, c sched.Candidate) bool) sched.Filter {
		return sched.Filter{Name: name, Fit: func(req sched.Request, c sched.Candidate) bool {
			ok := fit(req, c)
			if !ok {
				rejects[name]++
			}
			return ok
		}}
	}
	filters := []sched.Filter{
		filter("cordoned", func(_ sched.Request, c sched.Candidate) bool { return !k.cordoned[k.worker(c.Name).Index] }),
		filter("mem-fit", func(req sched.Request, c sched.Candidate) bool {
			return c.Node.MemUsedMB()+req.MemMB <= c.Node.MemMB
		}),
		filter("cpu-fit", func(req sched.Request, c sched.Candidate) bool {
			return k.requestedCPU(c.Name)+req.CPURequest <= float64(c.Node.Cores)
		}),
	}
	binPack := sched.ScoreFunc("bin-pack", 0, func(_ sched.Request, c sched.Candidate) float64 {
		return k.requestedCPU(c.Name)
	})
	var scores []sched.Score
	switch k.policy {
	case sched.PolicyLeastRequested:
		scores = []sched.Score{sched.ScoreFunc("least-requested", 0, func(_ sched.Request, c sched.Candidate) float64 {
			return -k.requestedCPU(c.Name)
		})}
	case sched.PolicyBinPack:
		scores = []sched.Score{binPack}
	case sched.PolicySpread:
		scores = []sched.Score{sched.ScoreFunc("spread", 0, func(_ sched.Request, c sched.Candidate) float64 {
			return -float64(k.PodsOnNode(c.Name))
		})}
	case sched.PolicyImageLocality:
		im := sched.ScoreFunc("image-locality", 1000, func(req sched.Request, c sched.Candidate) float64 {
			if rt := k.Runtime(c.Name); req.Image != "" && rt != nil && rt.HasImage(req.Image) {
				return 1
			}
			return 0
		})
		scores = []sched.Score{im, binPack}
	}
	return sched.Policy{Name: k.policy, Filters: filters, Scores: scores, SamplePercent: k.prm.SchedSamplePercent}
}

// diffChecker compares kube's fused placement with the reference policy.
type diffChecker struct {
	t       *testing.T
	k       *Kube
	ref     sched.Policy
	cands   []sched.Candidate
	rejects map[string]int
	checks  int
	zeroSum int // decisions whose winner's total was +0 and a plugin −0
}

func newDiffChecker(t *testing.T, k *Kube) *diffChecker {
	d := &diffChecker{t: t, k: k, rejects: make(map[string]int)}
	d.ref = referencePolicy(k, d.rejects)
	for _, w := range k.cl.Workers {
		d.cands = append(d.cands, sched.Candidate{Name: w.Name, Node: w})
	}
	return d
}

// check places spec both ways at the current state and the given rotation
// offset, leaving the scheduler's own rotation and pick count untouched.
func (d *diffChecker) check(spec PodSpec, offset int) {
	t, k := d.t, d.k
	t.Helper()
	d.checks++
	saveOffset, savePicks := k.schedOffset, k.picks
	k.schedOffset = offset
	best, feasible, visited := k.pickNode(&spec)
	k.schedOffset, k.picks = saveOffset, savePicks
	if k.prm.SchedSamplePercent == 0 {
		offset = 0 // kube rotates only when sampling
	}
	want := d.ref.Pick(podRequest(spec), d.cands, offset)
	where := fmt.Sprintf("%s pct=%d offset=%d pod %s", k.policy, k.prm.SchedSamplePercent, offset, spec.Name)
	if feasible != want.Feasible || visited != want.Visited {
		t.Fatalf("%s: feasible/visited %d/%d, reference %d/%d", where, feasible, visited, want.Feasible, want.Visited)
	}
	if (best < 0) != (want.Winner == nil) {
		t.Fatalf("%s: fused winner index %d, reference winner %v", where, best, want.Winner)
	}
	if best < 0 {
		return
	}
	got := k.decision(&spec, best, feasible, visited)
	if got.Winner.Node != want.Winner.Node || got.Winner.Name != want.Winner.Name {
		t.Fatalf("%s: winner %s, reference %s", where, got.Winner.Name, want.Winner.Name)
	}
	if math.Float64bits(got.Score) != math.Float64bits(want.Score) {
		t.Fatalf("%s: score %v (%#x), reference %v (%#x)", where,
			got.Score, math.Float64bits(got.Score), want.Score, math.Float64bits(want.Score))
	}
	if len(got.PerPlugin) != len(want.PerPlugin) {
		t.Fatalf("%s: per-plugin %+v, reference %+v", where, got.PerPlugin, want.PerPlugin)
	}
	for i, ps := range got.PerPlugin {
		w := want.PerPlugin[i]
		if ps.Plugin != w.Plugin || math.Float64bits(ps.Value) != math.Float64bits(w.Value) {
			t.Fatalf("%s: plugin %d = %s %v, reference %s %v", where, i, ps.Plugin, ps.Value, w.Plugin, w.Value)
		}
		if math.Float64bits(got.Score) == 0 && math.Float64bits(ps.Value) == 1<<63 {
			d.zeroSum++
		}
	}
}

// TestFusedPlacementMatchesReference is the differential gate on kube's
// fused placement: over every kube policy, exhaustive and sampled, a seeded
// churn of mixed CPU and memory requests with deletions, cordons and
// drains, the fused evaluation and the plugin-closure reference agree on
// the winner, the feasible and visited counts, and the total and per-plugin
// scores bit for bit — before every pod creation and after every other
// step, at the scheduler's rotating offset and at a random one.
func TestFusedPlacementMatchesReference(t *testing.T) {
	for _, policy := range kubePolicies {
		for _, pct := range []int{0, 10} {
			t.Run(fmt.Sprintf("%s/pct=%d", policy, pct), func(t *testing.T) {
				diffChurn(t, policy, pct)
			})
		}
	}
}

func diffChurn(t *testing.T, policy string, pct int) {
	const nodes = 150 // above the 100-node sampling floor, so sampling stops early
	f := newFixtureWith(t, func(p *config.Params) {
		p.WorkerNodes = nodes
		p.KubePlacementPolicy = policy
		p.SchedSamplePercent = pct
	})
	d := newDiffChecker(t, f.k)
	rng := rand.New(rand.NewSource(int64(len(policy)*100 + pct)))
	cpus := []float64{0.5, 1, 2.5, 4, 6}
	mems := []int{256, 2048, 12288, 20480}
	var live []string
	f.env.Go("churn", func(p *sim.Proc) {
		probe := func(spec PodSpec) {
			d.check(spec, f.k.schedOffset)
			d.check(spec, rng.Intn(4*nodes))
		}
		for step := 0; step < 600; step++ {
			switch r := rng.Intn(20); {
			case r < 11: // create
				spec := PodSpec{
					Name:       fmt.Sprintf("p-%d", step),
					Image:      "matmul",
					CPURequest: cpus[rng.Intn(len(cpus))],
					MemMB:      mems[rng.Intn(len(mems))],
				}
				probe(spec)
				if _, err := f.k.CreatePod(spec); err != nil {
					t.Fatal(err)
				}
				live = append(live, spec.Name)
			case r < 16 && len(live) > 0: // delete
				i := rng.Intn(len(live))
				f.k.DeletePod(live[i])
				live = append(live[:i], live[i+1:]...)
			case r == 16:
				f.k.CordonNode(f.k.Workers()[rng.Intn(nodes)])
			case r == 17:
				f.k.UncordonNode(f.k.Workers()[rng.Intn(nodes)])
			case r == 18:
				f.k.DrainNode(f.k.Workers()[rng.Intn(nodes)])
			default:
				p.Sleep(time.Duration(rng.Intn(3000)) * time.Millisecond)
			}
			p.Sleep(time.Millisecond)
			probe(PodSpec{Name: "probe", Image: "matmul", CPURequest: cpus[rng.Intn(len(cpus))], MemMB: mems[rng.Intn(len(mems))]})
		}
	})
	f.env.Run()
	for _, name := range []string{"cordoned", "mem-fit", "cpu-fit"} {
		if d.rejects[name] == 0 {
			t.Errorf("churn never made the %s filter reject a node", name)
		}
	}
	if policy == sched.PolicyLeastRequested && d.zeroSum == 0 {
		t.Error("no decision hit the +0 total / −0 plugin case")
	}
	t.Logf("%d decisions compared; rejections %v", d.checks, d.rejects)
}

// TestPlacementAllocatesNothing: an untraced placement decision allocates
// nothing under any policy, exhaustive or sampled.
func TestPlacementAllocatesNothing(t *testing.T) {
	for _, policy := range kubePolicies {
		for _, pct := range []int{0, 10} {
			f := newFixtureWith(t, func(p *config.Params) {
				p.KubePlacementPolicy = policy
				p.SchedSamplePercent = pct
			})
			s := spec("probe")
			if allocs := testing.AllocsPerRun(100, func() { f.k.pickNode(&s) }); allocs != 0 {
				t.Errorf("%s pct=%d: %v allocations per placement, want 0", policy, pct, allocs)
			}
		}
	}
}
