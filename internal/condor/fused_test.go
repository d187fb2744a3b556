package condor

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

// condorPolicies are the placement policies the negotiator accepts.
var condorPolicies = []string{sched.PolicyMostFreeRR, sched.PolicyDataLocality}

// term is one score plugin of a reference decision: its name, weight and
// raw value for one startd.
type term struct {
	name          string
	weight, value float64
}

// refDecision is the outcome of one reference match.
type refDecision struct {
	best, feasible, visited int
	score                   float64
	terms                   []term
}

// referenceMatch is the negotiator's matchmaking as a plain loop of filters
// and weighted score plugins — the form condor evaluated through the plugin
// framework before its filters and scores were fused into evalStartd. Every
// startd is visited in rotation order from offset, the online, slot-free
// and requirements filters run in that order, each total is the weighted
// plugin sum started at 0, and a strictly higher total displaces the
// incumbent. rejects counts each filter's rejections, so a test can prove
// its churn reached every filter.
func referenceMatch(s *Schedd, j *Job, offset int, rejects map[string]int) refDecision {
	n := len(s.startds)
	d := refDecision{best: -1}
	for v := 0; v < n; v++ {
		i := (offset + v) % n
		sd := s.startds[i]
		d.visited++
		switch {
		case sd.offline:
			rejects["online"]++
			continue
		case sd.free <= 0:
			rejects["slot-free"]++
			continue
		case j.Requires != nil && !j.Requires(sd.node):
			rejects["requirements"]++
			continue
		}
		d.feasible++
		ts := []term{{"most-free", 1, float64(sd.free)}}
		if s.policy == sched.PolicyDataLocality {
			frac := 0.0
			if len(j.InputLFNs) > 0 {
				in := 0
				for _, lfn := range j.InputLFNs {
					if sd.node.Scratch.Has(lfn) {
						in++
					}
				}
				frac = float64(in) / float64(len(j.InputLFNs))
			}
			ts = []term{{"data-locality", 1000, frac}, ts[0]}
		}
		total := 0.0
		for _, t := range ts {
			total += t.weight * t.value
		}
		if d.best < 0 || total > d.score {
			d.best, d.score, d.terms = i, total, ts
		}
	}
	return d
}

// diffChecker compares the negotiator's fused match with the reference
// loop.
type diffChecker struct {
	t       *testing.T
	s       *Schedd
	rejects map[string]int
	checks  int
	matched int // decisions with a winner
	local   int // decisions whose winner held some but not all inputs
}

// check matches j both ways at the current state and the given rotation
// offset, leaving the negotiator's own rotation untouched.
func (d *diffChecker) check(j *Job, offset int) {
	t, s := d.t, d.s
	t.Helper()
	d.checks++
	save := s.rrOffset
	s.rrOffset = offset - 1 // pickStartdFor advances before it scans
	best, feasible, visited := s.pickStartdFor(j)
	s.rrOffset = save
	want := referenceMatch(s, j, offset, d.rejects)
	where := fmt.Sprintf("%s offset=%d job %s", s.policy, offset, j.Name)
	if best != want.best || feasible != want.feasible || visited != want.visited {
		t.Fatalf("%s: winner/feasible/visited %d/%d/%d, reference %d/%d/%d", where,
			best, feasible, visited, want.best, want.feasible, want.visited)
	}
	if best < 0 {
		return
	}
	d.matched++
	got := s.decision(j, best, feasible)
	if node := s.startds[want.best].node.Name; got.Node != node || got.Feasible != want.feasible {
		t.Fatalf("%s: decision node %s feasible %d, reference %s %d", where, got.Node, got.Feasible, node, want.feasible)
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
		if ps.Plugin == "data-locality" && ps.Value > 0 && ps.Value < 1 {
			d.local++
		}
	}
}

// TestFusedMatchMatchesReference is the differential gate on the
// negotiator's fused matchmaking: under both policies, over a seeded churn
// of submissions with and without requirements and input files, scratch
// writes and deletions, node crashes and restores, and slots freed by
// finishing jobs, the fused evaluation and the plugin-loop reference agree
// on the winner, the feasible and visited counts, and the total and
// per-plugin scores bit for bit — before every submission and after every
// step, at the negotiator's next offset and at a random one. Condor's
// score terms are never negative, so unlike kube and knative no decision
// can carry a −0 term.
func TestFusedMatchMatchesReference(t *testing.T) {
	for _, policy := range condorPolicies {
		t.Run(policy, func(t *testing.T) { matchChurn(t, policy) })
	}
}

func matchChurn(t *testing.T, policy string) {
	const nodes = 6
	f := newFixture(t, func(p *config.Params) {
		fastPerJob(p)
		p.WorkerNodes = nodes
		p.CoresPerNode = 2
		p.CondorPlacementPolicy = policy
	})
	d := &diffChecker{t: t, s: f.s, rejects: make(map[string]int)}
	rng := rand.New(rand.NewSource(int64(len(policy))))
	lfns := []string{"wf/a", "wf/b", "wf/c", "wf/d", "wf/e"}
	spec := func(name string) JobSpec {
		js := JobSpec{Name: name}
		if rng.Intn(3) == 0 {
			mod, rem := 2+rng.Intn(2), rng.Intn(2)
			js.Requires = func(n *cluster.Node) bool { return n.Index%mod == rem }
		}
		for k := rng.Intn(4); k > 0; k-- {
			js.InputLFNs = append(js.InputLFNs, lfns[rng.Intn(len(lfns))])
		}
		run := time.Duration(1+rng.Intn(8)) * time.Second
		js.Run = jobFunc(func(_ *ExecContext, done func(error)) { f.env.Delay(run, func() { done(nil) }) })
		return js
	}
	probe := func(js JobSpec) {
		j := &Job{Name: js.Name, Requires: js.Requires, InputLFNs: js.InputLFNs}
		d.check(j, f.s.rrOffset+1)
		d.check(j, rng.Intn(4*nodes))
	}
	worker := func() *cluster.Node { return f.cl.Workers[rng.Intn(nodes)] }
	f.env.Go("churn", func(p *sim.Proc) {
		for step := 0; step < 400; step++ {
			switch r := rng.Intn(16); {
			case r < 6:
				js := spec(fmt.Sprintf("j-%d", step))
				probe(js)
				f.s.SubmitJob(js)
			case r < 9:
				worker().Scratch.PutThen(lfns[rng.Intn(len(lfns))], 1<<20, p.Resumer())
				p.Await()
			case r == 9:
				f.s.crashNode(worker().Name)
			case r < 12:
				f.s.restoreNode(worker().Name)
			default:
				p.Sleep(time.Duration(rng.Intn(4000)) * time.Millisecond)
			}
			p.Sleep(time.Millisecond)
			probe(spec("probe"))
		}
		f.s.Shutdown()
	})
	f.env.Run()
	for _, name := range []string{"online", "slot-free", "requirements"} {
		if d.rejects[name] == 0 {
			t.Errorf("churn never made the %s filter reject a startd", name)
		}
	}
	if policy == sched.PolicyDataLocality && d.local == 0 {
		t.Error("no decision's winner held a fraction of its inputs")
	}
	t.Logf("%d decisions compared, %d matched, %d partly local; rejections %v", d.checks, d.matched, d.local, d.rejects)
}

// TestMatchAllocatesNothing: an untraced match allocates nothing under
// either policy.
func TestMatchAllocatesNothing(t *testing.T) {
	for _, policy := range condorPolicies {
		f := newFixture(t, func(p *config.Params) { p.CondorPlacementPolicy = policy })
		j := &Job{Name: "probe", InputLFNs: []string{"wf/a", "wf/b"}, Requires: func(*cluster.Node) bool { return true }}
		if allocs := testing.AllocsPerRun(100, func() { f.s.pickStartdFor(j) }); allocs != 0 {
			t.Errorf("%s: %v allocations per match, want 0", policy, allocs)
		}
	}
}

// TestUnknownPlacementPolicyPanics: an unknown policy name fails New with a
// message naming the knob and every valid policy.
func TestUnknownPlacementPolicyPanics(t *testing.T) {
	want := `condor: unknown CondorPlacementPolicy "least-requested" (valid: most-free-rr, data-locality)`
	defer func() {
		if got := fmt.Sprint(recover()); got != want {
			t.Errorf("panic %q, want %q", got, want)
		}
	}()
	newFixture(t, func(p *config.Params) { p.CondorPlacementPolicy = "least-requested" })
}
