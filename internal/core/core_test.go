package core

import (
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/wms"
	"repro/internal/workload"
)

// fastParams shrinks scheduler latencies so end-to-end tests stay quick
// while keeping every mechanism in play.
func fastParams() config.Params {
	prm := config.Default()
	prm.NegotiationDelay = 2 * time.Second
	prm.NegotiatorJitterFrac = 0
	prm.DAGManPoll = 500 * time.Millisecond
	return prm
}

func TestEndToEndAllThreeModes(t *testing.T) {
	// Full paper-scale parameters: virtual time is free, and the overhead
	// ratios only make sense against the real 20+ second scheduling
	// latencies.
	prm := config.Default()
	s := NewStack(1, prm)
	s.RegisterTransformation(workload.MatmulTransformation, 14<<20)

	makespans := map[wms.Mode]time.Duration{}
	s.Env.Go("main", func(p *sim.Proc) {
		if err := s.DeployFunction(p, workload.MatmulTransformation, DefaultPolicy()); err != nil {
			t.Error(err)
			s.Shutdown()
			return
		}
		for _, mode := range []wms.Mode{wms.ModeNative, wms.ModeContainer, wms.ModeServerless} {
			wf := workload.Chain("chain-"+mode.String(), 5, prm.MatrixBytes)
			res, err := s.Engine.RunWorkflow(p, wf, wms.AssignAll(mode))
			if err != nil {
				t.Errorf("%v: %v", mode, err)
				continue
			}
			makespans[mode] = res.Makespan()
		}
		s.Shutdown()
	})
	s.Env.Run()

	if len(makespans) != 3 {
		t.Fatalf("makespans = %v", makespans)
	}
	// The paper's ordering: serverless close to native (1.08x in Fig. 6),
	// traditional containers slowest.
	native, sls, cont := makespans[wms.ModeNative], makespans[wms.ModeServerless], makespans[wms.ModeContainer]
	if ratio := sls.Seconds() / native.Seconds(); ratio < 0.95 || ratio > 1.25 {
		t.Errorf("serverless/native = %.2f (native %v, serverless %v)", ratio, native, sls)
	}
	if cont <= sls || cont <= native {
		t.Errorf("container %v not slowest (native %v, serverless %v)", cont, native, sls)
	}
}

func TestConcurrentWorkflowsMixedModes(t *testing.T) {
	prm := fastParams()
	s := NewStack(2, prm)
	s.RegisterTransformation(workload.MatmulTransformation, 14<<20)

	var res *ConcurrentResult
	s.Env.Go("main", func(p *sim.Proc) {
		if err := s.DeployFunction(p, workload.MatmulTransformation, DefaultPolicy()); err != nil {
			t.Error(err)
			s.Shutdown()
			return
		}
		wfs := workload.ConcurrentChains(4, 3, prm.MatrixBytes)
		assign := wms.AssignFractions(s.Env.Rand().Fork(), 1, 1, 1)
		r, err := s.RunConcurrentWorkflows(p, wfs, assign)
		if err != nil {
			t.Error(err)
		}
		res = r
		s.Shutdown()
	})
	s.Env.Run()

	if res == nil {
		t.Fatal("no result")
	}
	if len(res.Runs) != 4 {
		t.Fatalf("runs = %d", len(res.Runs))
	}
	total := 0
	for _, run := range res.Runs {
		total += len(run.Tasks)
	}
	if total != 12 {
		t.Errorf("tasks executed = %d, want 12", total)
	}
	if res.SlowestMakespan() < res.MeanMakespan() {
		t.Error("slowest < mean")
	}
}

func TestDeployPolicyInitialScaleZeroDefersContainers(t *testing.T) {
	prm := fastParams()
	s := NewStack(3, prm)
	s.RegisterTransformation(workload.MatmulTransformation, 14<<20)

	s.Env.Go("main", func(p *sim.Proc) {
		policy := DeployPolicy{
			InitialScale:         0,
			MinScale:             0,
			ContainerConcurrency: 8,
			PrePullAllNodes:      false,
			CapCores:             1,
		}
		if err := s.DeployFunction(p, workload.MatmulTransformation, policy); err != nil {
			t.Error(err)
			s.Shutdown()
			return
		}
		// No containers or images staged before the first task runs.
		created := 0
		for _, rt := range s.Runtimes {
			created += rt.CreatedTotal()
			if rt.HasImage("matmul-img") {
				t.Error("image pre-pulled despite initial-scale=0 and no pre-pull")
			}
		}
		if created != 0 {
			t.Errorf("containers created before first invocation: %d", created)
		}
		svc, _ := s.Service(workload.MatmulTransformation)
		if svc.ReadyPods() != 0 {
			t.Errorf("ReadyPods = %d before first invocation, want 0", svc.ReadyPods())
		}
		wf := workload.Chain("lazy", 2, prm.MatrixBytes)
		res, err := s.Engine.RunWorkflow(p, wf, wms.AssignAll(wms.ModeServerless))
		if err != nil {
			t.Error(err)
		} else if res.Makespan() <= 0 {
			t.Error("bad makespan")
		}
		if svc.ColdStarts == 0 {
			t.Error("deferred deployment saw no cold start")
		}
		s.Shutdown()
	})
	s.Env.Run()
}

func TestDeterministicAcrossIdenticalStacks(t *testing.T) {
	run := func() time.Duration {
		prm := fastParams()
		s := NewStack(77, prm)
		s.RegisterTransformation(workload.MatmulTransformation, 14<<20)
		var makespan time.Duration
		s.Env.Go("main", func(p *sim.Proc) {
			_ = s.DeployFunction(p, workload.MatmulTransformation, DefaultPolicy())
			wfs := workload.ConcurrentChains(3, 3, prm.MatrixBytes)
			res, err := s.RunConcurrentWorkflows(p, wfs, wms.AssignFractions(s.Env.Rand().Fork(), 1, 0, 1))
			if err == nil {
				makespan = res.SlowestMakespan()
			}
			s.Shutdown()
		})
		s.Env.Run()
		return makespan
	}
	a, b := run(), run()
	if a == 0 || a != b {
		t.Errorf("runs differ: %v vs %v", a, b)
	}
}

func TestDoubleDeployRejected(t *testing.T) {
	prm := fastParams()
	s := NewStack(4, prm)
	s.RegisterTransformation(workload.MatmulTransformation, 14<<20)
	s.Env.Go("main", func(p *sim.Proc) {
		if err := s.DeployFunction(p, workload.MatmulTransformation, DefaultPolicy()); err != nil {
			t.Error(err)
		}
		if err := s.DeployFunction(p, workload.MatmulTransformation, DefaultPolicy()); err == nil {
			t.Error("double deploy accepted")
		}
		if err := s.DeployFunction(p, "ghost", DefaultPolicy()); err == nil {
			t.Error("deploy of unregistered transformation accepted")
		}
		s.Shutdown()
	})
	s.Env.Run()
}

// TestWorkflowRunSpawnsOnlyItsDriver: under by-value staging a workflow's
// condor jobs, their payloads in every mode, the container lifecycles and
// the function invocations all run as chains of continuations, so a run
// creates one coroutine, its driver's.
func TestWorkflowRunSpawnsOnlyItsDriver(t *testing.T) {
	for _, mode := range []wms.Mode{wms.ModeNative, wms.ModeContainer, wms.ModeServerless} {
		t.Run(mode.String(), func(t *testing.T) {
			prm := fastParams()
			s := NewStack(1, prm)
			s.RegisterTransformation(workload.MatmulTransformation, 14<<20)
			s.Env.Go("main", func(p *sim.Proc) {
				defer s.Shutdown()
				if mode == wms.ModeServerless {
					if err := s.DeployFunction(p, workload.MatmulTransformation, DefaultPolicy()); err != nil {
						t.Error(err)
						return
					}
				}
				wf := workload.FanOutFanIn(sim.NewRNG(1), "fan", 6, 3, prm.MatrixBytes, workload.UniformScale(0.5, 1.5))
				if _, err := s.Engine.RunWorkflow(p, wf, wms.AssignAll(mode)); err != nil {
					t.Error(err)
				}
			})
			s.Env.Run()
			if got := s.Env.Stats().Coroutines; got != 1 {
				t.Errorf("run created %d coroutines, want 1 (the driver)", got)
			}
		})
	}
}

// stagedRunCounts pins the kernel's work in TestStagedRunSpawnsOnlyItsDriver,
// per case: events fired, and resumes, all of them the driver's: its start
// and its one wake from RunWorkflow. A change that moves them on purpose
// updates them and says why.
var stagedRunCounts = map[string][2]int{
	"shared-fs/native":        {301, 2},
	"shared-fs/serverless":    {528, 2},
	"object-store/native":     {310, 2},
	"object-store/serverless": {555, 2},
}

// TestStagedRunSpawnsOnlyItsDriver: under remote staging every task's
// stage-in and stage-out is a chain over its files, and a function whose
// image is absent from the serving node is pulled by the pod's bring-up
// chain, so a run still creates one coroutine, its driver's. Shared-fs
// staging runs with the scratch cache on, so stage-in also takes scratch
// hits and stage-out writes scratch copies.
func TestStagedRunSpawnsOnlyItsDriver(t *testing.T) {
	for _, staging := range []wms.DataStaging{wms.StageSharedFS, wms.StageObjectStore} {
		for _, mode := range []wms.Mode{wms.ModeNative, wms.ModeServerless} {
			name := staging.String() + "/" + mode.String()
			t.Run(name, func(t *testing.T) {
				prm := fastParams()
				prm.ScratchCache = staging == wms.StageSharedFS
				s := NewStack(1, prm)
				s.Engine.Staging = staging
				s.RegisterTransformation(workload.MatmulTransformation, 14<<20)
				s.Env.Go("main", func(p *sim.Proc) {
					defer s.Shutdown()
					if mode == wms.ModeServerless {
						// No pre-pull and no initial replica: the first
						// invocation's cold start pulls the image.
						policy := DeployPolicy{ContainerConcurrency: 2, CapCores: 1}
						if err := s.DeployFunction(p, workload.MatmulTransformation, policy); err != nil {
							t.Error(err)
							return
						}
					}
					wf := workload.FanOutFanIn(sim.NewRNG(1), "fan", 6, 3, prm.MatrixBytes, workload.UniformScale(0.5, 1.5))
					if _, err := s.Engine.RunWorkflow(p, wf, wms.AssignAll(mode)); err != nil {
						t.Error(err)
					}
				})
				s.Env.Run()
				st := s.Env.Stats()
				if st.Coroutines != 1 {
					t.Errorf("run created %d coroutines, want 1 (the driver)", st.Coroutines)
				}
				if mode == wms.ModeServerless && s.Registry.Pulls() == 0 {
					t.Error("the serving node never pulled the function's image")
				}
				if got, want := [2]int{st.Events, st.Resumes}, stagedRunCounts[name]; got != want {
					t.Errorf("run fired %d events and made %d resumes, pinned %d and %d", got[0], got[1], want[0], want[1])
				}
			})
		}
	}
}
