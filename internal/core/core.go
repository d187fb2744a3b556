// Package core implements the paper's contribution: the integration of a
// serverless platform (the knative package) with a workflow management
// system (the wms package) running on HTCondor, so that workflow tasks can
// execute natively, in per-task containers, or as invocations of
// pre-registered serverless functions — a tunable trade-off between
// execution time and performance isolation.
//
// The integration has three parts, mirroring §IV of the paper:
//
//   - task containerization and registration: transformations are packaged
//     into images, pushed to the registry, and registered with Knative
//     before the workflow runs (Stack.DeployFunction);
//   - container provisioning policy: the Knative annotations min-scale and
//     initial-scale choose between pre-staging containers on workers and
//     deferring image download to first invocation (DeployPolicy);
//   - transparent invocation with pass-by-value file handling: the planner
//     (wms.Engine) replaces each serverless task with a wrapper condor job
//     that POSTs the input files in the request body and writes the response
//     back out, leaving the abstract workflow unchanged.
package core

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/condor"
	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/knative"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/wms"
)

// DeployPolicy selects the container provisioning strategy for a function
// (§IV-2 and §V-E).
type DeployPolicy struct {
	// MinScale maps to "autoscaling.knative.dev/min-scale": keep at least
	// this many warm replicas; their nodes download the image ahead of
	// time.
	MinScale int
	// InitialScale maps to "autoscaling.knative.dev/initial-scale": the
	// replica count provisioned at registration. Zero defers container
	// download and creation until a task is invoked — the behaviour closest
	// to how Pegasus ships containers at job execution time.
	InitialScale int
	// MaxScale bounds scale-out (0 = unbounded).
	MaxScale int
	// ContainerConcurrency is the per-replica concurrent request limit:
	// 1 gives each task a container to itself for the duration of the
	// request; higher values let concurrent tasks share a warm container.
	ContainerConcurrency int
	// PrePullAllNodes additionally stages the image on every worker before
	// the run (the paper's "containers distributed to workers" scenario).
	PrePullAllNodes bool
	// CapCores is the cgroup quota per function container (0 = uncapped).
	CapCores float64
}

// DefaultPolicy is the configuration of the paper's parallel-scaling
// experiment (Fig. 2): warm replicas with multiple tasks co-located in the
// same container ("Knative allows multiple tasks to be co-located within
// the same container", §III-C).
func DefaultPolicy() DeployPolicy {
	return DeployPolicy{
		MinScale:             1,
		InitialScale:         1,
		ContainerConcurrency: 8,
		PrePullAllNodes:      true,
		CapCores:             1,
	}
}

// ReusePolicy is the serverless point of Figs. 5–6: "allowing only one
// request per container at a time but reusing the container structure for
// subsequent tasks" — strongest per-request isolation the serverless path
// offers, with reuse across tasks.
func ReusePolicy() DeployPolicy {
	return DeployPolicy{
		MinScale:             1,
		InitialScale:         1,
		ContainerConcurrency: 1,
		PrePullAllNodes:      true,
		CapCores:             1,
	}
}

// Stack is the full simulated testbed: a Platform plus the workflow layer
// on top of it — the HTCondor pool, the catalogs, shared storage, and the
// workflow engine wired to the platform's runtimes and Knative services.
type Stack struct {
	Platform
	Pool     *condor.Schedd
	Catalogs *wms.Catalogs
	Engine   *wms.Engine
	// FS is the shared filesystem exported by the submit node, used when
	// the engine's staging strategy is wms.StageSharedFS (§V-E).
	FS *storage.SharedFS
	// Store is the Minio-like object service on the submit node, used when
	// the staging strategy is wms.StageObjectStore (§V-E).
	Store *storage.ObjectStore
	// Faults is the cross-layer fault injector, nil until EnableFaults.
	Faults *faults.Injector
}

// NewStack builds and starts the testbed described by prm on a fresh
// simulation environment with the given seed: the platform, then on it the
// workflow layer.
func NewStack(seed uint64, prm config.Params) *Stack {
	s := &Stack{Platform: NewPlatform(seed, prm)}
	s.Pool = condor.New(s.Env, s.Cluster, prm)
	s.Pool.Start()
	s.Catalogs = wms.NewCatalogs()
	s.FS = storage.NewSharedFS(s.Env, s.Cluster.Net, cluster.SubmitNodeName, 400e6)
	s.Store = storage.NewObjectStore(s.Env, s.Cluster.Net, cluster.SubmitNodeName, 400e6)
	s.Engine = &wms.Engine{
		Env:        s.Env,
		Cl:         s.Cluster,
		Pool:       s.Pool,
		Runtimes:   s.Runtimes,
		Reg:        s.Registry,
		Catalogs:   s.Catalogs,
		Prm:        prm,
		Retry:      prm.TaskRetry,
		Services:   s.Knative.Service,
		FS:         s.FS,
		Store:      s.Store,
		Budget:     s.budget,
		HedgeAfter: prm.HedgeAfter,
		HedgeMax:   prm.HedgeMax,
	}
	// The completion broker exists only under the trigger execution mode: its
	// dispatch takes a run-queue slot, and creating it unconditionally would
	// shift the run order (and thus RNG/span identity) for the poll and
	// decentralized modes. An unparseable ExecMode stays Broker-less
	// here; the engine rejects it with the parse error at run time.
	if mode, err := config.ParseExecMode(prm.ExecMode); err == nil && mode == config.ExecTrigger {
		s.Engine.Broker = s.Knative.NewBroker("wms-completions")
	}
	return s
}

// EnableFaults creates the fault injector and attaches every substrate's
// hooks: network (latency, partitions, brownouts), registry pull errors,
// container create/start failures, condor node crashes and job failures,
// kube drains and cold-start failures, knative pod kills, and object-store
// outages. Call it once, before Env.Run; schedule faults on the returned
// injector. Idempotent after the first call.
func (s *Stack) EnableFaults() *faults.Injector {
	if s.Faults != nil {
		return s.Faults
	}
	in := faults.NewInjector(s.Env)
	s.Cluster.Net.AttachFaults(in)
	s.Registry.AttachFaults(in)
	s.Runtimes.AttachFaults(in)
	s.Pool.AttachFaults(in)
	s.Kube.AttachFaults(in)
	s.Knative.AttachFaults(in)
	s.Store.AttachFaults(in)
	s.Faults = in
	return in
}

// RegisterTransformation packages a transformation: it declares it in the
// transformation catalog and builds and pushes its container image (the
// shared base layers plus an app layer).
func (s *Stack) RegisterTransformation(name string, appBytes int64) {
	imageName := name + "-img"
	base := s.Prm.ImageLayersBytes[:len(s.Prm.ImageLayersBytes)-1]
	s.Registry.Push(registry.NewImage(imageName, base, appBytes))
	s.Catalogs.AddTransformation(wms.Transformation{Name: name, Image: imageName})
}

// DeployFunction registers a transformation's function with Knative under
// the given provisioning policy. It must run before the workflow (§IV-1:
// "task registration with the serverless system was done manually before
// the execution of the workflow") and blocks until pre-provisioned replicas
// are ready.
func (s *Stack) DeployFunction(p *sim.Proc, transformation string, policy DeployPolicy) error {
	tr, ok := s.Catalogs.Transformation(transformation)
	if !ok {
		return fmt.Errorf("core: unknown transformation %q", transformation)
	}
	if _, dup := s.Knative.Service(transformation); dup {
		return fmt.Errorf("core: function for %q already deployed", transformation)
	}
	if policy.PrePullAllNodes {
		if err := s.PrePull(p, tr.Image); err != nil {
			return err
		}
	}
	_, err := s.Knative.Deploy(p, knative.ServiceSpec{
		Name:                 transformation,
		Image:                tr.Image,
		ContainerConcurrency: policy.ContainerConcurrency,
		MinScale:             policy.MinScale,
		InitialScale:         policy.InitialScale,
		MaxScale:             policy.MaxScale,
		CPURequest:           1,
		MemMB:                512,
		CapCores:             policy.CapCores,
		AppInit:              s.Prm.ColdStartAppInit,
	})
	return err
}

// Service returns the deployed function for a transformation: DeployFunction
// names each service after its transformation.
func (s *Stack) Service(transformation string) (*knative.Service, bool) {
	return s.Knative.Service(transformation)
}

// AutoIntegrate is the §IX-B automation: it scans a workflow, registers any
// transformation missing from the catalog (building and pushing an image
// with the default app-layer size), and deploys a function for each one not
// yet deployed — no manual per-function registration step.
func (s *Stack) AutoIntegrate(p *sim.Proc, wf *wms.Workflow, policy DeployPolicy) error {
	seen := make(map[string]bool)
	for _, id := range wf.TaskIDs() {
		task, _ := wf.Task(id)
		tr := task.Transformation
		if seen[tr] {
			continue
		}
		seen[tr] = true
		if _, ok := s.Catalogs.Transformation(tr); !ok {
			appLayer := s.Prm.ImageLayersBytes[len(s.Prm.ImageLayersBytes)-1]
			s.RegisterTransformation(tr, appLayer)
		}
		if _, deployed := s.Knative.Service(tr); !deployed {
			if err := s.DeployFunction(p, tr, policy); err != nil {
				return fmt.Errorf("core: auto-integrate %s: %w", tr, err)
			}
		}
	}
	return nil
}

// Shutdown stops every daemon so Env.Run drains.
func (s *Stack) Shutdown() {
	s.Platform.Shutdown()
	s.Pool.Shutdown()
}

// ConcurrentResult is the outcome of a set of concurrent workflow runs —
// the paper's unit of measurement (§V-D: "the average execution time of the
// slowest workflow among the 10 concurrent runs").
type ConcurrentResult struct {
	Runs []*wms.RunResult
}

// SlowestMakespan returns the largest makespan across the runs.
func (r *ConcurrentResult) SlowestMakespan() time.Duration {
	var max time.Duration
	for _, run := range r.Runs {
		if m := run.Makespan(); m > max {
			max = m
		}
	}
	return max
}

// MeanMakespan returns the mean makespan across the runs.
func (r *ConcurrentResult) MeanMakespan() time.Duration {
	if len(r.Runs) == 0 {
		return 0
	}
	var sum time.Duration
	for _, run := range r.Runs {
		sum += run.Makespan()
	}
	return sum / time.Duration(len(r.Runs))
}

// RunConcurrentWorkflows launches every workflow at once (Fig. 4) and
// blocks until all complete.
func (s *Stack) RunConcurrentWorkflows(p *sim.Proc, wfs []*wms.Workflow, assign wms.ModeAssigner) (*ConcurrentResult, error) {
	results := make([]*wms.RunResult, len(wfs))
	errs := make([]error, len(wfs))
	wg := sim.NewWaitGroup(s.Env)
	for i, wf := range wfs {
		wg.Add(1)
		// Each run starts at the slot where a process spawned now would
		// first run.
		s.Env.Defer(func() {
			s.Engine.RunWorkflowThen(wf, assign, func(res *wms.RunResult, err error) {
				results[i], errs[i] = res, err
				wg.Done()
			})
		})
	}
	wg.Wait(p)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: workflow %s: %w", wfs[i].Name, err)
		}
	}
	return &ConcurrentResult{Runs: results}, nil
}
