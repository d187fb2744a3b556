package condor

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

type fixture struct {
	env *sim.Env
	cl  *cluster.Cluster
	s   *Schedd
	prm config.Params
}

func newFixture(t *testing.T, mut func(*config.Params)) *fixture {
	t.Helper()
	prm := config.Default()
	if mut != nil {
		mut(&prm)
	}
	env := sim.NewEnv(1)
	cl := cluster.New(env, prm)
	s := New(env, cl, prm)
	s.Start()
	return &fixture{env: env, cl: cl, s: s, prm: prm}
}

// jobFunc is a payload written as a function: it reports its outcome
// through done, at once or from a continuation it arms.
type jobFunc func(ctx *ExecContext, done func(error))

func (f jobFunc) Run(ctx *ExecContext, done func(error)) { f(ctx, done) }

// submit queues a job at default priority with no requirements.
func submit(s *Schedd, name string, inBytes, outBytes int64, fn jobFunc) *Job {
	return s.SubmitJob(JobSpec{Name: name, TransferInputBytes: inBytes, TransferOutputBytes: outBytes, Run: fn})
}

// totalSlots is the pool's slot count.
func (s *Schedd) totalSlots() int {
	n := 0
	for _, sd := range s.startds {
		n += sd.slots
	}
	return n
}

// fastCycle switches to the global-cycle negotiation model with a short,
// deterministic cycle.
func fastCycle(p *config.Params) {
	p.PerJobNegotiation = false
	p.NegotiatorCycle = time.Second
	p.NegotiatorJitterFrac = 0
	p.CondorJitterFrac = 0
}

// fastPerJob keeps the per-job negotiation model with a short deterministic
// delay.
func fastPerJob(p *config.Params) {
	p.PerJobNegotiation = true
	p.NegotiationDelay = time.Second
	p.NegotiatorJitterFrac = 0
	p.CondorJitterFrac = 0
}

// matchedAt is when the schedd matched j: the start of its claim span,
// which a tracer attached before the run records.
func matchedAt(j *Job) time.Duration { return j.claim.Start() }

func TestJobRunsAndCompletes(t *testing.T) {
	f := newFixture(t, fastCycle)
	trace.New(f.env)
	f.env.Go("main", func(p *sim.Proc) {
		j := submit(f.s, "task", 1<<20, 1<<19, func(ctx *ExecContext, done func(error)) {
			ctx.Node.ExecReservedThen(0.44, 1, 0, func() { done(nil) })
		})
		if err := f.s.Wait(p, j); err != nil {
			t.Fatal(err)
		}
		if j.Status() != StatusCompleted {
			t.Errorf("status = %v", j.Status())
		}
		if j.Node() == "" {
			t.Error("job has no node")
		}
		if !(j.SubmittedAt <= matchedAt(j) && matchedAt(j) <= j.StartedAt && j.StartedAt < j.FinishedAt) {
			t.Errorf("timestamps out of order: %v %v %v %v", j.SubmittedAt, matchedAt(j), j.StartedAt, j.FinishedAt)
		}
		f.s.Shutdown()
	})
	f.env.Run()
	if f.s.finished != 1 {
		t.Errorf("finished = %d", f.s.finished)
	}
}

// TestJobSpanParentFromContinuation: a job submitted from a continuation,
// where no process runs, nests its span under JobSpec.Parent, and its
// payload receives the payload span in ExecContext.Span.
func TestJobSpanParentFromContinuation(t *testing.T) {
	f := newFixture(t, fastCycle)
	tr := trace.New(f.env)
	parent := tr.Start(nil, "wms", "task")
	var j *Job
	var payload *trace.Span
	f.env.Defer(func() {
		j = f.s.SubmitJob(JobSpec{Name: "task", Parent: parent, Run: jobFunc(func(ctx *ExecContext, done func(error)) {
			payload = ctx.Span
			done(nil)
		})})
	})
	f.env.Go("main", func(p *sim.Proc) {
		if err := f.s.Wait(p, j); err != nil {
			t.Error(err)
		}
		f.s.Shutdown()
	})
	f.env.Run()
	job := tracetest.MustFind(t, tr, tracetest.Match{Substrate: "condor", Name: "job"})[0]
	if job.Parent() != parent.ID() {
		t.Fatalf("condor/job span's parent is #%d, want #%d", job.Parent(), parent.ID())
	}
	if payload == nil || payload.Name() != "payload" || !payload.Ended() {
		t.Fatalf("ExecContext.Span = %v, want the ended payload span", payload)
	}
	if claim := tr.Span(payload.Parent()); claim == nil || claim.Parent() != job.ID() {
		t.Errorf("payload span's parent %v is not the job's claim", claim)
	}
}

func TestJobWaitsForNegotiationCycle(t *testing.T) {
	f := newFixture(t, func(p *config.Params) {
		p.NegotiatorCycle = 10 * time.Second
		p.NegotiatorJitterFrac = 0
	})
	trace.New(f.env)
	f.env.Go("main", func(p *sim.Proc) {
		j := submit(f.s, "task", 0, 0, noop)
		_ = f.s.Wait(p, j)
		if matchedAt(j) < 10*time.Second {
			t.Errorf("matched at %v, before first cycle", matchedAt(j))
		}
		f.s.Shutdown()
	})
	f.env.Run()
}

func TestParallelJobsSpreadAcrossNodes(t *testing.T) {
	f := newFixture(t, fastCycle)
	f.env.Go("main", func(p *sim.Proc) {
		var jobs []*Job
		for i := 0; i < 6; i++ {
			jobs = append(jobs, submit(f.s, "task", 0, 0, func(ctx *ExecContext, done func(error)) {
				ctx.Node.ExecReservedThen(1, 1, 0, func() { done(nil) })
			}))
		}
		nodes := map[string]int{}
		for _, j := range jobs {
			_ = f.s.Wait(p, j)
			nodes[j.Node()]++
		}
		if len(nodes) != 3 {
			t.Errorf("6 jobs used %d nodes, want 3", len(nodes))
		}
		for n, c := range nodes {
			if c != 2 {
				t.Errorf("node %s ran %d jobs, want 2 (spread)", n, c)
			}
		}
		f.s.Shutdown()
	})
	f.env.Run()
}

func TestPoolSaturationDefersToNextCycle(t *testing.T) {
	f := newFixture(t, func(p *config.Params) {
		p.NegotiatorCycle = 5 * time.Second
		p.NegotiatorJitterFrac = 0
		p.WorkerNodes = 1
		p.CoresPerNode = 2 // 2 slots total
	})
	trace.New(f.env)
	f.env.Go("main", func(p *sim.Proc) {
		var jobs []*Job
		for i := 0; i < 3; i++ {
			jobs = append(jobs, submit(f.s, "task", 0, 0, func(_ *ExecContext, done func(error)) {
				f.env.Delay(time.Second, func() { done(nil) }) // hold the slot
			}))
		}
		for _, j := range jobs {
			_ = f.s.Wait(p, j)
		}
		// Third job cannot match in the first cycle (2 slots).
		if matchedAt(jobs[2]) < 10*time.Second {
			t.Errorf("third job matched at %v, want second cycle (≥10s)", matchedAt(jobs[2]))
		}
		f.s.Shutdown()
	})
	f.env.Run()
	if f.s.FreeSlots() != f.s.totalSlots() {
		t.Errorf("slots leaked: %d free of %d", f.s.FreeSlots(), f.s.totalSlots())
	}
}

func TestShadowSpawnSerializesDispatch(t *testing.T) {
	f := newFixture(t, func(p *config.Params) {
		fastCycle(p)
		p.ShadowSpawn = 300 * time.Millisecond
		p.JobStartOverhead = 0
	})
	const n = 8
	f.env.Go("main", func(p *sim.Proc) {
		var jobs []*Job
		for i := 0; i < n; i++ {
			jobs = append(jobs, submit(f.s, "task", 0, 0, noop))
		}
		var starts []time.Duration
		for _, j := range jobs {
			_ = f.s.Wait(p, j)
			starts = append(starts, j.StartedAt)
		}
		// Starts must be staggered by ~ShadowSpawn even though all match in
		// the same cycle.
		span := starts[len(starts)-1] - starts[0]
		want := time.Duration(n-1) * 300 * time.Millisecond
		if span < want {
			t.Errorf("dispatch span %v < %v: shadow spawns not serialized", span, want)
		}
		f.s.Shutdown()
	})
	f.env.Run()
}

func TestInputTransfersShareSubmitUplink(t *testing.T) {
	f := newFixture(t, func(p *config.Params) {
		fastCycle(p)
		p.ShadowSpawn = 0
		p.JobStartOverhead = 0
		p.SubmitUplinkBps = 1e6 // 1 MB/s to make transfer time visible
	})
	f.env.Go("main", func(p *sim.Proc) {
		var jobs []*Job
		for i := 0; i < 4; i++ {
			jobs = append(jobs, submit(f.s, "task", 1e6, 0, noop))
		}
		var lastStart time.Duration
		for _, j := range jobs {
			_ = f.s.Wait(p, j)
			if j.StartedAt > lastStart {
				lastStart = j.StartedAt
			}
		}
		// 4 MB through a 1 MB/s uplink ≈ 4s of serialized transfer after the
		// 1s cycle.
		if lastStart < 4*time.Second {
			t.Errorf("last start %v; uplink sharing not effective", lastStart)
		}
		f.s.Shutdown()
	})
	f.env.Run()
}

func TestFailedJobPropagatesError(t *testing.T) {
	f := newFixture(t, fastCycle)
	boom := errors.New("task exploded")
	f.env.Go("main", func(p *sim.Proc) {
		j := submit(f.s, "task", 0, 1<<20, func(_ *ExecContext, done func(error)) { done(boom) })
		if err := f.s.Wait(p, j); !errors.Is(err, boom) {
			t.Errorf("err = %v", err)
		}
		if j.Status() != StatusFailed {
			t.Errorf("status = %v", j.Status())
		}
		f.s.Shutdown()
	})
	f.env.Run()
	if f.s.FreeSlots() != f.s.totalSlots() {
		t.Error("failed job leaked its slot")
	}
}

func TestSubmitBeforeStartPanics(t *testing.T) {
	prm := config.Default()
	env := sim.NewEnv(1)
	cl := cluster.New(env, prm)
	s := New(env, cl, prm)
	defer func() {
		if recover() == nil {
			t.Error("Submit before Start did not panic")
		}
	}()
	submit(s, "task", 0, 0, noop)
}

func TestPerJobNegotiationDelay(t *testing.T) {
	f := newFixture(t, func(p *config.Params) {
		p.PerJobNegotiation = true
		p.NegotiationDelay = 8 * time.Second
		p.NegotiatorJitterFrac = 0
		p.CondorJitterFrac = 0
	})
	trace.New(f.env)
	f.env.Go("main", func(p *sim.Proc) {
		p.Sleep(3 * time.Second) // submit mid-stream; delay counts from submit
		j := submit(f.s, "task", 0, 0, noop)
		_ = f.s.Wait(p, j)
		if matchedAt(j) != 11*time.Second {
			t.Errorf("matched at %v, want 11s (submit 3s + delay 8s)", matchedAt(j))
		}
		f.s.Shutdown()
	})
	f.env.Run()
}

func TestPerJobBlockedJobGetsFreedSlot(t *testing.T) {
	f := newFixture(t, func(p *config.Params) {
		fastPerJob(p)
		p.WorkerNodes = 1
		p.CoresPerNode = 1 // a single slot
		p.ShadowSpawn = 0
		p.JobStartOverhead = 0
	})
	f.env.Go("main", func(p *sim.Proc) {
		hold := submit(f.s, "holder", 0, 0, func(_ *ExecContext, done func(error)) {
			f.env.Delay(10*time.Second, func() { done(nil) })
		})
		waiter := submit(f.s, "waiter", 0, 0, noop)
		_ = f.s.Wait(p, hold)
		_ = f.s.Wait(p, waiter)
		// Holder occupies the only slot until t=11s; waiter was negotiated
		// at t=1s, blocked, and must start right when the slot frees.
		if waiter.StartedAt < 11*time.Second || waiter.StartedAt > 11*time.Second+100*time.Millisecond {
			t.Errorf("blocked job started at %v, want ≈11s", waiter.StartedAt)
		}
		f.s.Shutdown()
	})
	f.env.Run()
	if n := len(f.s.idle) + len(f.s.blocked); n != 0 {
		t.Errorf("queue depth = %d after drain", n)
	}
}

func TestPriorityOrdersBlockedQueue(t *testing.T) {
	f := newFixture(t, func(p *config.Params) {
		fastPerJob(p)
		p.WorkerNodes = 1
		p.CoresPerNode = 1 // one slot: everything else queues
		p.ShadowSpawn = 0
		p.JobStartOverhead = 0
	})
	var order []string
	f.env.Go("main", func(p *sim.Proc) {
		hold := submit(f.s, "holder", 0, 0, func(_ *ExecContext, done func(error)) {
			f.env.Delay(10*time.Second, func() { done(nil) })
		})
		// Both negotiate at ~1s while the holder occupies the slot; the
		// low-priority job was submitted first but must yield.
		low := submit(f.s, "low", 0, 0, func(_ *ExecContext, done func(error)) {
			order = append(order, "low")
			done(nil)
		})
		high := f.s.SubmitJob(JobSpec{Name: "high", Priority: 10, Run: jobFunc(func(_ *ExecContext, done func(error)) {
			order = append(order, "high")
			done(nil)
		})})
		_ = f.s.Wait(p, hold)
		_ = f.s.Wait(p, high)
		_ = f.s.Wait(p, low)
		f.s.Shutdown()
	})
	f.env.Run()
	if len(order) != 2 || order[0] != "high" {
		t.Errorf("execution order = %v, want high before low", order)
	}
}

func TestPriorityOrdersCycleQueue(t *testing.T) {
	f := newFixture(t, func(p *config.Params) {
		fastCycle(p)
		p.WorkerNodes = 1
		p.CoresPerNode = 1
		p.ShadowSpawn = 0
		p.JobStartOverhead = 0
	})
	var first string
	f.env.Go("main", func(p *sim.Proc) {
		low := submit(f.s, "low", 0, 0, func(_ *ExecContext, done func(error)) {
			if first == "" {
				first = "low"
			}
			f.env.Delay(time.Second, func() { done(nil) })
		})
		high := f.s.SubmitJob(JobSpec{Name: "high", Priority: 5, Run: jobFunc(func(_ *ExecContext, done func(error)) {
			if first == "" {
				first = "high"
			}
			f.env.Delay(time.Second, func() { done(nil) })
		})})
		_ = f.s.Wait(p, low)
		_ = f.s.Wait(p, high)
		f.s.Shutdown()
	})
	f.env.Run()
	if first != "high" {
		t.Errorf("first matched = %q, want high (priority within cycle)", first)
	}
}

func TestRequirementsPinJobToNode(t *testing.T) {
	f := newFixture(t, fastPerJob)
	f.env.Go("main", func(p *sim.Proc) {
		want := "worker2"
		j := f.s.SubmitJob(JobSpec{Name: "pinned", Requires: func(n *cluster.Node) bool {
			return n.Name == want
		}, Run: noop})
		if err := f.s.Wait(p, j); err != nil {
			t.Fatal(err)
		}
		if j.Node() != want {
			t.Errorf("ran on %s, want %s", j.Node(), want)
		}
		f.s.Shutdown()
	})
	f.env.Run()
}

func TestUnsatisfiableRequirementStaysIdle(t *testing.T) {
	f := newFixture(t, fastPerJob)
	f.env.Go("main", func(p *sim.Proc) {
		f.s.SubmitJob(JobSpec{Name: "impossible", Requires: func(n *cluster.Node) bool {
			return false
		}, Run: noop})
		ok := submit(f.s, "normal", 0, 0, noop)
		if err := f.s.Wait(p, ok); err != nil {
			t.Fatal(err)
		}
		f.s.Shutdown()
	})
	f.env.RunUntil(time.Minute)
	if n := len(f.s.idle) + len(f.s.blocked); n != 1 {
		t.Errorf("queue depth = %d, want 1 (the unsatisfiable job)", n)
	}
	if f.s.finished != 1 {
		t.Errorf("finished = %d; the satisfiable job must not be blocked", f.s.finished)
	}
}

func TestRequirementsDoNotBlockQueueInCycleMode(t *testing.T) {
	f := newFixture(t, fastCycle)
	trace.New(f.env)
	f.env.Go("main", func(p *sim.Proc) {
		// Unsatisfiable job submitted FIRST; the later unconstrained job
		// must still be matched in the same cycle.
		f.s.SubmitJob(JobSpec{Name: "stuck", Priority: 5, Requires: func(n *cluster.Node) bool { return false },
			Run: noop})
		ok := submit(f.s, "runs", 0, 0, noop)
		if err := f.s.Wait(p, ok); err != nil {
			t.Fatal(err)
		}
		if matchedAt(ok) > 2*time.Second {
			t.Errorf("unconstrained job matched at %v; head-of-line blocked", matchedAt(ok))
		}
		f.s.Shutdown()
	})
	f.env.RunUntil(time.Minute)
}

func TestShutdownStopsNegotiator(t *testing.T) {
	f := newFixture(t, fastCycle)
	f.env.Go("main", func(p *sim.Proc) {
		f.s.Shutdown()
	})
	f.env.Run()
	if f.env.Alive() != 0 {
		t.Errorf("%d processes alive after shutdown", f.env.Alive())
	}
}

// TestCycleModeSpawnsOnlyJobs: in cycle mode the negotiator is a recurring
// event and every matched job a chain of continuations, so the six jobs
// that match in one cycle and run at once create no coroutine: the run's
// one coroutine is its driver's.
func TestCycleModeSpawnsOnlyJobs(t *testing.T) {
	f := newFixture(t, func(p *config.Params) { p.PerJobNegotiation = false })
	const jobs = 6
	f.env.Go("main", func(p *sim.Proc) {
		var js []*Job
		for i := 0; i < jobs; i++ {
			js = append(js, submit(f.s, "task", 0, 0, func(_ *ExecContext, done func(error)) {
				f.env.Delay(time.Second, func() { done(nil) })
			}))
		}
		for _, j := range js {
			if err := f.s.Wait(p, j); err != nil {
				t.Error(err)
			}
		}
		f.s.Shutdown()
	})
	f.env.Run()
	if got := f.env.Stats().Coroutines; got != 1 {
		t.Errorf("run created %d coroutines, want 1 (the driver)", got)
	}
	if f.env.Alive() != 0 {
		t.Errorf("%d processes alive after shutdown", f.env.Alive())
	}
}
