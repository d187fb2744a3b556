package wms_test

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/knative"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wms"
	"repro/internal/workload"
)

var updateFaultPaths = flag.Bool("update-faultpaths", false, "rewrite testdata/faultpaths.golden from this build")

// faultPathModes are the three release paths every scenario runs under.
var faultPathModes = []string{"poll", "decentralized", "trigger"}

// faultScenario is one fault path: it configures a stack, then drives it
// from the main process, writing what it observes to out.
type faultScenario struct {
	name  string
	seed  uint64
	setup func(s *core.Stack)
	drive func(p *sim.Proc, s *core.Stack, out *strings.Builder)
}

// writeRun renders a run's outcome: the makespan and the hedge counts its
// spans under tr show, then every task's exact timestamps, in task ID
// order.
func writeRun(out *strings.Builder, tr *trace.Tracer, res *wms.RunResult, err error, now time.Duration) {
	var abort *wms.AbortError
	switch {
	case errors.As(err, &abort):
		r := abort.Rescue
		done := make([]string, 0, len(r.Done))
		for id := range r.Done {
			done = append(done, id)
		}
		slices.Sort(done)
		fmt.Fprintf(out, "abort reason=%s task=%s attempts=%d at=%v abandoned=%d done=%v\n",
			abort.Reason, abort.Task, abort.Attempts, now, r.Abandoned, done)
		return
	case err != nil:
		fmt.Fprintf(out, "error %v at=%v\n", err, now)
		return
	}
	hedges, wins := wms.HedgeCounts(tr, res.Workflow)
	fmt.Fprintf(out, "run %s started=%v makespan=%v hedges=%d hedge_wins=%d\n",
		res.Workflow, res.StartedAt, res.Makespan(), hedges, wins)
	tasks := slices.Clone(res.Tasks)
	slices.SortFunc(tasks, func(a, b *wms.TaskResult) int { return strings.Compare(a.ID, b.ID) })
	for _, task := range tasks {
		fmt.Fprintf(out, "  task %s node=%s attempts=%d submit=%v start=%v finish=%v\n",
			task.ID, task.Node, task.Attempts, task.SubmittedAt, task.StartedAt, task.FinishedAt)
	}
}

// fanWorkflow is in → width chains of depth → out, native matmuls whose
// work grows along each chain, so some tasks straggle.
func fanWorkflow(name string, width, depth int) *wms.Workflow {
	wf := wms.NewWorkflow(name)
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(wf.AddTask(wms.TaskSpec{ID: "in", Transformation: workload.MatmulTransformation}))
	for j := 0; j < width; j++ {
		for i := 0; i < depth; i++ {
			id := fmt.Sprintf("b%d.s%d", j, i)
			must(wf.AddTask(wms.TaskSpec{ID: id, Transformation: workload.MatmulTransformation, WorkScale: float64(1 + 10*j*i)}))
			parent := "in"
			if i > 0 {
				parent = fmt.Sprintf("b%d.s%d", j, i-1)
			}
			must(wf.AddDependency(parent, id))
		}
	}
	must(wf.AddTask(wms.TaskSpec{ID: "out", Transformation: workload.MatmulTransformation}))
	for j := 0; j < width; j++ {
		must(wf.AddDependency(fmt.Sprintf("b%d.s%d", j, depth-1), "out"))
	}
	return wf
}

// pinnedWorkflow is a→b→c with b pinned to worker2 and a, c to worker1, so
// a worker2 fault hits exactly task b.
func pinnedWorkflow() *wms.Workflow {
	wf := wms.NewWorkflow("pinned")
	for _, spec := range []wms.TaskSpec{
		{ID: "a", Transformation: workload.MatmulTransformation, RequireNode: "worker1"},
		{ID: "b", Transformation: workload.MatmulTransformation, RequireNode: "worker2"},
		{ID: "c", Transformation: workload.MatmulTransformation, RequireNode: "worker1"},
	} {
		if err := wf.AddTask(spec); err != nil {
			panic(err)
		}
	}
	_ = wf.AddDependency("a", "b")
	_ = wf.AddDependency("b", "c")
	return wf
}

var faultScenarios = []faultScenario{
	{
		// Worker1 is swamped, so the tasks placed there straggle and take
		// speculative copies; a copy that wins settles its task, the loser
		// is abandoned.
		name: "hedge",
		seed: 1,
		setup: func(s *core.Stack) {
			s.Engine.HedgeAfter = 20 * time.Second
			s.Engine.HedgeMax = 2
			node := s.Cluster.MustNode("worker1")
			for range 24 {
				s.Env.Go("hog", func(p *sim.Proc) { node.Exec(p, 200, 1) })
			}
		},
		drive: func(p *sim.Proc, s *core.Stack, out *strings.Builder) {
			res, err := s.Engine.RunWorkflow(p, fanWorkflow("hedge", 3, 3), wms.AssignAll(wms.ModeNative))
			writeRun(out, trace.FromEnv(s.Env), res, err, p.Now())
		},
	},
	{
		// Task b fails on worker2 until 100 s and retries after a jittered
		// backoff until an attempt succeeds.
		name: "retry",
		seed: 1,
		setup: func(s *core.Stack) {
			s.Engine.Retry = config.RetryPolicy{MaxAttempts: 5, BaseDelay: 2 * time.Second, Multiplier: 2, JitterFrac: 0.5}
			s.EnableFaults().Schedule(faults.Fault{Kind: faults.KindJobFailure, At: 0, Duration: 100 * time.Second, Rate: 1, Target: "worker2"})
		},
		drive: func(p *sim.Proc, s *core.Stack, out *strings.Builder) {
			res, err := s.Engine.RunWorkflow(p, pinnedWorkflow(), wms.AssignAll(wms.ModeNative))
			writeRun(out, trace.FromEnv(s.Env), res, err, p.Now())
		},
	},
	{
		// With one retry, task b exhausts its attempts inside the incident
		// and aborts the run with a rescue; the rescue resumes once the
		// incident is over.
		name: "rescue",
		seed: 1,
		setup: func(s *core.Stack) {
			s.Engine.Retry = config.RetryPolicy{MaxAttempts: 2, BaseDelay: 2 * time.Second, Multiplier: 2, JitterFrac: 0.5}
			s.EnableFaults().Schedule(faults.Fault{Kind: faults.KindJobFailure, At: 0, Duration: 100 * time.Second, Rate: 1, Target: "worker2"})
		},
		drive: func(p *sim.Proc, s *core.Stack, out *strings.Builder) {
			wf := pinnedWorkflow()
			res, err := s.Engine.RunWorkflow(p, wf, wms.AssignAll(wms.ModeNative))
			writeRun(out, trace.FromEnv(s.Env), res, err, p.Now())
			var abort *wms.AbortError
			if !errors.As(err, &abort) {
				return
			}
			if now := p.Now(); now < 105*time.Second {
				p.Sleep(105*time.Second - now)
			}
			res, err = s.Engine.ResumeWorkflow(p, wf, wms.AssignAll(wms.ModeNative), abort.Rescue)
			writeRun(out, trace.FromEnv(s.Env), res, err, p.Now())
		},
	},
	{
		// examples/eventdriven: six capture events, each planned into a
		// 4-task serverless chain by core.WatchAndRun.
		name: "watch",
		seed: 11,
		drive: func(p *sim.Proc, s *core.Stack, out *strings.Builder) {
			if err := s.DeployFunction(p, workload.MatmulTransformation, core.DefaultPolicy()); err != nil {
				fmt.Fprintf(out, "deploy: %v\n", err)
				return
			}
			broker := s.Knative.NewBroker("default")
			// The subject of each run's event, in run order, and when the
			// broker accepted each: Publish returns at acceptance.
			var subjects []string
			accepted := map[string]time.Duration{}
			dyn := s.WatchAndRun(broker, "dev.repro.capture.done",
				func(ev knative.Event) (*wms.Workflow, wms.ModeAssigner) {
					subjects = append(subjects, ev.Subject)
					n := len(subjects)
					return workload.Chain(fmt.Sprintf("dyn%02d", n), 4, s.Prm.MatrixBytes), wms.AssignAll(wms.ModeServerless)
				})
			for i := 0; i < 6; i++ {
				err := broker.Publish(p, "worker1", knative.Event{
					Type:      "dev.repro.capture.done",
					Source:    "instrument",
					Subject:   fmt.Sprintf("capture-%02d.dat", i),
					DataBytes: s.Prm.MatrixBytes,
				})
				if err != nil {
					fmt.Fprintf(out, "publish: %v\n", err)
					return
				}
				accepted[fmt.Sprintf("capture-%02d.dat", i)] = p.Now()
				if i == 2 {
					p.Sleep(60 * time.Second)
				} else {
					p.Sleep(5 * time.Second)
				}
			}
			dyn.Wait(p)
			for i, run := range dyn.Runs() {
				fmt.Fprintf(out, "event %s at=%v\n", subjects[i], accepted[subjects[i]])
				writeRun(out, trace.FromEnv(s.Env), run.Result, run.Err, p.Now())
			}
		},
	},
}

// faultPathsGolden runs every scenario under every release path and
// renders what each observed, closing with the kernel's event count.
func faultPathsGolden() string {
	var out strings.Builder
	for _, sc := range faultScenarios {
		for _, mode := range faultPathModes {
			prm := config.Default()
			prm.ExecMode = mode
			s := core.NewStack(sc.seed, prm)
			s.RegisterTransformation(workload.MatmulTransformation, 18<<20)
			trace.New(s.Env) // writeRun counts hedges from the spans
			if sc.setup != nil {
				sc.setup(s)
			}
			fmt.Fprintf(&out, "== %s mode=%s\n", sc.name, mode)
			s.Env.Go("main", func(p *sim.Proc) {
				defer s.Shutdown()
				sc.drive(p, s, &out)
			})
			end := s.Env.Run()
			fmt.Fprintf(&out, "end=%v events=%d\n", end, s.Env.Stats().Events)
		}
	}
	return out.String()
}

// TestFaultPathsPinned pins the release engine's fault paths in all three
// execution modes: straggler hedges, retries with backoff then a rescue
// and resume, and the event-driven launch of workflows through
// core.WatchAndRun. Each task's exact submit, start and finish times,
// attempts, the hedge counts, the makespan or abort, and the kernel's
// event count must match the golden byte for byte; -update-faultpaths
// rewrites it.
func TestFaultPathsPinned(t *testing.T) {
	got := faultPathsGolden()
	path := filepath.Join("testdata", "faultpaths.golden")
	if *updateFaultPaths {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("fault paths diverged from the golden at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("fault paths have %d lines, the golden %d", len(gl), len(wl))
}
