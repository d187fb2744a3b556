package kube

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/sched"
	"repro/internal/sim"
)

// kubePolicies are the placement policies kube accepts.
var kubePolicies = []string{sched.PolicyLeastRequested, sched.PolicyBinPack, sched.PolicySpread, sched.PolicyImageLocality}

// term is one score plugin of a reference decision: its name, weight and
// raw value for one node.
type term struct {
	name          string
	weight, value float64
}

// refDecision is the outcome of one reference placement.
type refDecision struct {
	best, feasible, visited int
	score                   float64
	terms                   []term
}

// referencePlace is kube's placement as a plain loop of filters and
// weighted score plugins over the name-keyed public state — the form kube
// evaluated through the plugin framework before its filters and scores were
// fused into evalNode. Candidates are visited in rotation order from
// offset, each total is the weighted plugin sum started at 0, a strictly
// higher total displaces the incumbent, and sampling stops once enough
// candidates were feasible. rejects counts each filter's rejections, so a
// test can prove its churn reached every filter.
func referencePlace(k *Kube, spec PodSpec, offset int, rejects map[string]int) refDecision {
	workers := k.cl.Workers
	n := len(workers)
	target := n
	if pct := k.prm.SchedSamplePercent; pct > 0 && pct < 100 {
		target = min(max(n*pct/100, 100), n)
	}
	terms := func(w *cluster.Node) []term {
		r := k.requestedCPU(w.Name)
		switch k.policy {
		case sched.PolicyBinPack:
			return []term{{"bin-pack", 1, r}}
		case sched.PolicySpread:
			return []term{{"spread", 1, -float64(k.podsOnNode(w.Name))}}
		case sched.PolicyImageLocality:
			has := 0.0
			if rt := k.Runtime(w.Name); spec.Image != "" && rt != nil && rt.HasImage(spec.Image) {
				has = 1
			}
			return []term{{"image-locality", 1000, has}, {"bin-pack", 1, r}}
		default:
			return []term{{"least-requested", 1, -r}}
		}
	}
	d := refDecision{best: -1}
	for v := 0; v < n && d.feasible < target; v++ {
		w := workers[(offset+v)%n]
		d.visited++
		switch {
		case k.cordoned[k.worker(w.Name).Index]:
			rejects["cordoned"]++
			continue
		case w.MemUsedMB()+spec.MemMB > w.MemMB:
			rejects["mem-fit"]++
			continue
		case k.requestedCPU(w.Name)+spec.CPURequest > float64(w.Cores):
			rejects["cpu-fit"]++
			continue
		}
		d.feasible++
		ts := terms(w)
		total := 0.0
		for _, t := range ts {
			total += t.weight * t.value
		}
		if d.best < 0 || total > d.score {
			d.best, d.score, d.terms = w.Index, total, ts
		}
	}
	return d
}

// diffChecker compares kube's fused placement with the reference loop.
type diffChecker struct {
	t       *testing.T
	k       *Kube
	rejects map[string]int
	checks  int
	zeroSum int // decisions whose winner's total was +0 and a plugin −0
	imaged  int // decisions whose winner already held the pod's image
}

func newDiffChecker(t *testing.T, k *Kube) *diffChecker {
	return &diffChecker{t: t, k: k, rejects: make(map[string]int)}
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
	want := referencePlace(k, spec, offset, d.rejects)
	where := fmt.Sprintf("%s pct=%d offset=%d pod %s", k.policy, k.prm.SchedSamplePercent, offset, spec.Name)
	if best != want.best || feasible != want.feasible || visited != want.visited {
		t.Fatalf("%s: winner/feasible/visited %d/%d/%d, reference %d/%d/%d", where,
			best, feasible, visited, want.best, want.feasible, want.visited)
	}
	if best < 0 {
		return
	}
	got := k.decision(&spec, best, feasible)
	if got.Node != k.cl.Workers[want.best].Name || got.Feasible != want.feasible {
		t.Fatalf("%s: decision node %s feasible %d, reference %s %d", where,
			got.Node, got.Feasible, k.cl.Workers[want.best].Name, want.feasible)
	}
	if math.Float64bits(got.Score) != math.Float64bits(want.score) {
		t.Fatalf("%s: score %v (%#x), reference %v (%#x)", where,
			got.Score, math.Float64bits(got.Score), want.score, math.Float64bits(want.score))
	}
	if len(got.PerPlugin) != len(want.terms) {
		t.Fatalf("%s: per-plugin %+v, reference %+v", where, got.PerPlugin, want.terms)
	}
	for i, ps := range got.PerPlugin {
		w := want.terms[i]
		if ps.Plugin != w.name || math.Float64bits(ps.Value) != math.Float64bits(w.value) {
			t.Fatalf("%s: plugin %d = %s %v, reference %s %v", where, i, ps.Plugin, ps.Value, w.name, w.value)
		}
		if math.Float64bits(got.Score) == 0 && math.Float64bits(ps.Value) == 1<<63 {
			d.zeroSum++
		}
		if ps.Plugin == sched.PolicyImageLocality && ps.Value == 1 {
			d.imaged++
		}
	}
}

// TestFusedPlacementMatchesReference is the differential gate on kube's
// fused placement: over every kube policy, exhaustive and sampled, a seeded
// churn of mixed CPU and memory requests with deletions, cordons and
// drains, on a cluster whose every third node holds the image up front,
// the fused evaluation and the plugin-loop reference agree on
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
		for i, w := range f.k.Workers() { // image-locality needs imaged and bare nodes
			if i%3 == 0 {
				if err := f.k.Runtime(w).PullImage(p, "matmul"); err != nil {
					t.Fatal(err)
				}
			}
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
				f.k.cordonNode(f.k.Workers()[rng.Intn(nodes)])
			case r == 17:
				f.k.uncordonNode(f.k.Workers()[rng.Intn(nodes)])
			case r == 18:
				f.k.drainNode(f.k.Workers()[rng.Intn(nodes)])
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
	if policy == sched.PolicyImageLocality && d.imaged == 0 {
		t.Error("no decision's winner held the pod's image")
	}
	if policy == sched.PolicyLeastRequested && d.zeroSum == 0 {
		t.Error("no decision hit the +0 total / −0 plugin case")
	}
	t.Logf("%d decisions compared, %d on an imaged node; rejections %v", d.checks, d.imaged, d.rejects)
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

// newPanic returns what New panics with under the mutated parameters, ""
// when it does not panic.
func newPanic(t *testing.T, mutate func(*config.Params)) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	newFixtureWith(t, mutate)
	return ""
}

// TestUnknownPlacementPolicyPanics: an unknown policy name fails New with a
// message naming the knob and every valid policy.
func TestUnknownPlacementPolicyPanics(t *testing.T) {
	got := newPanic(t, func(p *config.Params) { p.KubePlacementPolicy = "most-free-rr" })
	want := `kube: unknown KubePlacementPolicy "most-free-rr" (valid: least-requested, bin-pack, spread, image-locality)`
	if got != want {
		t.Errorf("panic %q, want %q", got, want)
	}
}

// TestSamplePercentValidated: an out-of-range SchedSamplePercent fails New;
// the whole range [0, 100] is accepted.
func TestSamplePercentValidated(t *testing.T) {
	for _, pct := range []int{-1, 101} {
		want := fmt.Sprintf("kube: SchedSamplePercent %d outside [0, 100]", pct)
		if got := newPanic(t, func(p *config.Params) { p.SchedSamplePercent = pct }); got != want {
			t.Errorf("pct %d: panic %q, want %q", pct, got, want)
		}
	}
	for _, pct := range []int{0, 50, 100} {
		if got := newPanic(t, func(p *config.Params) { p.SchedSamplePercent = pct }); got != "" {
			t.Errorf("pct %d rejected: %s", pct, got)
		}
	}
}
