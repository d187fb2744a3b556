package wms

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/condor"
	"repro/internal/config"
	"repro/internal/crt"
	"repro/internal/knative"
	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
)

// ServiceResolver maps a transformation name to its deployed serverless
// function. The integration layer (internal/core) provides it after
// registering functions with Knative.
type ServiceResolver func(transformation string) (*knative.Service, bool)

// DataStaging selects how task data moves between jobs (§V-E discusses the
// alternatives).
type DataStaging int

const (
	// StageByValue is the paper's implemented strategy: inputs and outputs
	// travel in condor file-transfer sandboxes, and serverless invocations
	// carry file contents in the request/response bodies (§IV-3).
	StageByValue DataStaging = iota
	// StageSharedFS is the alternative strategy (§V-E): files live on a
	// shared filesystem exported by the submit node; every task reads its
	// inputs from and writes its outputs to the share, and serverless
	// requests carry only references.
	StageSharedFS
	// StageObjectStore keeps files in a Minio-like object service (§V-E
	// names Minio explicitly): tasks GET inputs and PUT outputs; requests
	// carry only object references.
	StageObjectStore
)

func (d DataStaging) String() string {
	switch d {
	case StageByValue:
		return "by-value"
	case StageSharedFS:
		return "shared-fs"
	case StageObjectStore:
		return "object-store"
	default:
		return fmt.Sprintf("DataStaging(%d)", int(d))
	}
}

// referenceBytes is the size of a file-reference manifest when data stays
// on the shared filesystem.
const referenceBytes = 512

// TaskResult records how one task executed.
type TaskResult struct {
	ID       string
	Mode     Mode
	Node     string
	Attempts int

	SubmittedAt time.Duration
	StartedAt   time.Duration
	FinishedAt  time.Duration
}

// RunResult summarises one workflow run.
type RunResult struct {
	Workflow   string
	StartedAt  time.Duration
	FinishedAt time.Duration
	Tasks      map[string]*TaskResult
}

// Makespan is the workflow's wall-clock duration.
func (r *RunResult) Makespan() time.Duration { return r.FinishedAt - r.StartedAt }

// ModeCount returns how many tasks ran in the given mode.
func (r *RunResult) ModeCount(m Mode) int {
	n := 0
	for _, t := range r.Tasks {
		if t.Mode == m {
			n++
		}
	}
	return n
}

// Engine is the DAGMan-like executor: it plans each abstract task into a
// condor job for its assigned mode and drives the DAG, releasing ready
// tasks on the release path Prm.ExecMode selects (release.go).
type Engine struct {
	Env      *sim.Env
	Cl       *cluster.Cluster
	Pool     *condor.Schedd
	Runtimes crt.Set
	Reg      *registry.Registry
	Catalogs *Catalogs
	Prm      config.Params
	// Services resolves serverless functions; required only when some task
	// is assigned ModeServerless.
	Services ServiceResolver
	// Retry governs task resubmission (Pegasus-style retry): total attempt
	// budget plus exponential backoff between a task's failure and its
	// resubmission. The zero value means one attempt, no retries.
	Retry config.RetryPolicy
	// Staging selects the data-movement strategy (default StageByValue).
	Staging DataStaging
	// FS is the shared filesystem, required when Staging is StageSharedFS.
	FS *storage.SharedFS
	// Store is the object service, required when Staging is
	// StageObjectStore. Objects live in the workflow-named bucket.
	Store *storage.ObjectStore
	// Budget, when non-nil, gates every task resubmission through a shared
	// token-bucket retry budget (successes deposit, retries withdraw). A
	// denied resubmission aborts the workflow with a rescue instead of
	// letting correlated failures amplify into a resubmission storm.
	Budget *resilience.RetryBudget
	// HedgeAfter launches a speculative duplicate of a task whose newest
	// copy has been in flight longer than this (straggler mitigation): the
	// first copy to complete wins, the rest are abandoned like the jobs a
	// rescue DAG leaves behind. 0 disables hedging.
	HedgeAfter time.Duration
	// HedgeMax caps speculative copies per task attempt (0 means 1).
	HedgeMax int
	// Broker carries task-settled events under the "trigger" execution mode
	// (config.ExecTrigger); required for that mode, unused otherwise.
	Broker *knative.Broker
}

// flight is one task's in-flight attempt: the primary condor job plus any
// speculative hedge copies.
type flight struct {
	attempt *trace.Span
	copies  []flightCopy
	first   [1]flightCopy // copies' backing array until a hedge grows it
	hedge   func()        // the event-driven hedge timer's step, when hedging
}

// flightCopy is one submitted copy of an attempt. span is nil for the
// primary (covered by the task-attempt span); hedge copies get their own
// "hedge" spans when a tracer is attached.
type flightCopy struct {
	job  *condor.Job
	span *trace.Span
}

// RunWorkflow executes the workflow with the given mode assignment and
// blocks until it completes. It returns per-task provenance. When a task
// exhausts the engine's retry budget the error is an *abortError carrying a
// rescue state; resumeWorkflow (or RunWorkflowWithRecovery) continues from it.
func (e *Engine) RunWorkflow(p *sim.Proc, wf *Workflow, assign ModeAssigner) (*RunResult, error) {
	return e.await(p, wf, assign, nil)
}

// RunWorkflowThen is RunWorkflow's continuation form: it starts the run and
// hands its outcome to done where a process blocked in RunWorkflow would
// resume, at once when the run cannot start.
func (e *Engine) RunWorkflowThen(wf *Workflow, assign ModeAssigner, done func(*RunResult, error)) {
	e.start(wf, assign, nil, done)
}

// await is start with the calling process's resume, and one park.
func (e *Engine) await(p *sim.Proc, wf *Workflow, assign ModeAssigner, rescue *rescueState) (res *RunResult, err error) {
	resume := p.Resumer()
	e.start(wf, assign, rescue, func(r *RunResult, rerr error) {
		res, err = r, rerr
		resume()
	})
	p.Await()
	return res, err
}

// start is the shared front half of every run: it validates the DAG,
// stages external inputs, assigns modes, reinstates any rescue state, and
// hands the prepared dagRun to the release engine. A non-nil rescue
// pre-marks finished tasks.
func (e *Engine) start(wf *Workflow, assign ModeAssigner, rescue *rescueState, done func(*RunResult, error)) {
	d, err := e.prepare(wf, assign, rescue)
	if err != nil {
		done(nil, err)
		return
	}
	d.done = done
	d.begin()
}

func (e *Engine) prepare(wf *Workflow, assign ModeAssigner, rescue *rescueState) (*dagRun, error) {
	execMode, err := config.ParseExecMode(e.Prm.ExecMode)
	if err != nil {
		return nil, err
	}
	if execMode == config.ExecTrigger && e.Broker == nil {
		return nil, fmt.Errorf("wms: execution mode %q needs Engine.Broker", execMode)
	}
	if err := wf.validateOnce(); err != nil {
		return nil, err
	}
	switch e.Staging {
	case StageSharedFS:
		if e.FS == nil {
			return nil, fmt.Errorf("wms: shared-fs staging needs Engine.FS")
		}
		// The replica catalog's job: workflow inputs are already on the
		// share before the run begins.
		for _, f := range wf.ExternalInputs() {
			e.FS.Touch(f.LFN, f.Bytes)
		}
	case StageObjectStore:
		if e.Store == nil {
			return nil, fmt.Errorf("wms: object-store staging needs Engine.Store")
		}
		for _, f := range wf.ExternalInputs() {
			e.Store.Seed(wf.Name, f.LFN, f.Bytes)
		}
	}
	res := &RunResult{
		Workflow:  wf.Name,
		StartedAt: e.Env.Now(),
		Tasks:     make(map[string]*TaskResult, wf.Len()),
	}

	tracer := trace.FromEnv(e.Env)
	wfSpan := tracer.Start(nil, "wms", "workflow", trace.L("workflow", wf.Name))
	d, err := newDagRun(e, wf, assign, rescue, res, tracer, wfSpan)
	if err != nil {
		wfSpan.End()
		return nil, err
	}
	d.mode = execMode
	if rescue != nil {
		// Rescue-DAG resume: newDagRun planned the finished tasks out of the
		// DAG, and the makespan spans the original start.
		res.StartedAt = rescue.StartedAt
	}
	return d, nil
}

// reportOutcome is the back half of every run: it checks DAG settlement
// (every task settled exactly once, nothing in flight), closes the
// workflow span and hands the outcome to the caller.
func (d *dagRun) reportOutcome() {
	if d.trig != nil {
		d.e.Broker.Unsubscribe(d.trig)
	}
	res, err := d.res, d.err
	if err == nil && (d.ndone != d.wf.Len() || len(res.Tasks) != d.wf.Len() || len(d.inflight) != 0) {
		err = fmt.Errorf("wms: workflow %s ended with %d of %d tasks settled, %d in flight", d.wf.Name, d.ndone, d.wf.Len(), len(d.inflight))
	}
	if err != nil {
		res = nil
	}
	d.wfSpan.End()
	d.done(res, err)
}

// submitTask plans one copy of task i into a condor job for its mode and
// submits it, with the job's span under sp. The job's payload is the task's
// own run state (taskState.Run), so a submission builds no closure, and the
// "<workflow>/<task>" name is built only for a tracer.
func (d *dagRun) submitTask(i int32, sp *trace.Span) (*condor.Job, error) {
	e, t, task := d.e, &d.tasks[i], d.wf.tasks[i]
	var requires func(*cluster.Node) bool
	if task.RequireNode != "" {
		want := task.RequireNode
		requires = func(n *cluster.Node) bool { return n.Name == want }
	}
	remoteData := e.Staging != StageByValue

	// Sandbox sizes: with condorio staging the matrices travel with the
	// job; with a shared filesystem or object store only tiny manifests do.
	inBytes, outBytes := task.inputBytes(), task.outputBytes()
	if remoteData {
		inBytes, outBytes = referenceBytes, referenceBytes
	}
	img, _, err := t.resources()
	if err != nil {
		return nil, err
	}
	inBytes += img.Bytes() // container mode: the image travels with the job

	// The task's logical input files feed condor's data-locality placement
	// score (residency only ever matters under remote staging).
	var inputLFNs []string
	if remoteData {
		for _, f := range task.Inputs {
			inputLFNs = append(inputLFNs, f.LFN)
		}
	}
	var name string
	if d.tracer != nil {
		name = t.name()
	}
	return e.Pool.SubmitJob(condor.JobSpec{
		Name:                name,
		Priority:            task.Priority,
		Requires:            requires,
		TransferInputBytes:  inBytes,
		TransferOutputBytes: outBytes,
		InputLFNs:           inputLFNs,
		Run:                 t,
		Parent:              sp,
	}), nil
}

// resources resolves what the task's mode runs: the container image, or
// the serverless function. Submission checks them; the payload looks them
// up again on the worker, so the task state stays small.
func (t *taskState) resources() (img registry.Image, svc *knative.Service, err error) {
	e, task := t.d.e, t.d.wf.tasks[t.i]
	tr, ok := e.Catalogs.Transformation(task.Transformation)
	if !ok {
		return img, nil, fmt.Errorf("wms: unknown transformation %q", task.Transformation)
	}
	switch t.mode {
	case ModeNative:
	case ModeContainer:
		if img, ok = e.Reg.Image(tr.Image); !ok {
			return img, nil, fmt.Errorf("wms: image %q for transformation %q not in registry", tr.Image, tr.Name)
		}
	case ModeServerless:
		if e.Services == nil {
			return img, nil, fmt.Errorf("wms: task %s assigned serverless but no service resolver configured", t.name())
		}
		if svc, ok = e.Services(task.Transformation); !ok {
			return img, nil, fmt.Errorf("wms: no serverless function registered for transformation %q", task.Transformation)
		}
	default:
		return img, nil, fmt.Errorf("wms: unknown mode %v", t.mode)
	}
	return img, svc, nil
}

// name is the task's "<workflow>/<task>" name, for spans, events and
// errors.
func (t *taskState) name() string {
	return t.d.wf.Name + "/" + t.d.wf.tasks[t.i].ID
}

// span opens a span under parent labelled with the task's name and the
// node; untraced, it builds no name.
func (t *taskState) span(parent *trace.Span, substrate, name, node string) *trace.Span {
	tr := trace.FromEnv(t.d.e.Env)
	if tr == nil {
		return nil
	}
	return tr.Start(parent, substrate, name, trace.L("task", t.name()), trace.L("node", node))
}

// Run is the task's condor payload: its mode's body on the claimed slot.
func (t *taskState) Run(ctx *condor.ExecContext) error {
	switch t.mode {
	case ModeContainer:
		return t.runContainer(ctx)
	case ModeServerless:
		return t.runServerless(ctx)
	}
	return t.runNative(ctx)
}

// runNative is Setup 1: the task runs straight on the claimed slot.
func (t *taskState) runNative(ctx *condor.ExecContext) error {
	e, task := t.d.e, t.d.wf.tasks[t.i]
	if err := t.stageIn(ctx.Proc, ctx.Span, ctx.Node.Name); err != nil {
		return err
	}
	sp := t.span(ctx.Span, "exec", "exec", ctx.Node.Name)
	ctx.Node.Exec(ctx.Proc, e.Cl.NextTaskWork()*task.effectiveWorkScale(), 1)
	sp.End()
	return t.stageOut(ctx.Proc, ctx.Span, ctx.Node.Name)
}

// runContainer is Setup 2: the image came with the job, is loaded on the
// worker, and a fresh container runs the task under a one-core quota.
func (t *taskState) runContainer(ctx *condor.ExecContext) error {
	e, p, sp := t.d.e, ctx.Proc, ctx.Span
	rt, ok := e.Runtimes[ctx.Node.Name]
	if !ok {
		return fmt.Errorf("wms: no container runtime on %s", ctx.Node.Name)
	}
	img, _, err := t.resources()
	if err != nil {
		return err
	}
	rt.ImportImage(p, sp, img)
	c, err := rt.Create(p, sp, img.Name, 1)
	if err != nil {
		return err
	}
	err = c.Start(p, sp)
	if err == nil {
		err = t.stageIn(p, sp, ctx.Node.Name)
	}
	if err == nil {
		err = c.Exec(p, sp, e.Cl.NextTaskWork()*t.d.wf.tasks[t.i].effectiveWorkScale())
	}
	if err == nil {
		err = t.stageOut(p, sp, ctx.Node.Name)
	}
	// Tear the container down on every exit so a retried attempt starts
	// from a clean slate — leaking a container per failed attempt would
	// make resubmission non-idempotent (and slowly eat the node under
	// fault injection).
	if stopErr := c.StopRemove(p, sp); err == nil {
		err = stopErr
	}
	return err
}

// runServerless is Setup 3: the original job is replaced by an invoker
// wrapper. The wrapper is itself a condor job (the critical path includes
// it, §IV-4). With by-value staging, inputs come to the wrapper's node and
// travel to the function in the request body; with remote staging the
// function's node reads the data service directly.
func (t *taskState) runServerless(ctx *condor.ExecContext) error {
	e, task := t.d.e, t.d.wf.tasks[t.i]
	_, svc, err := t.resources()
	if err != nil {
		return err
	}
	ws := t.span(ctx.Span, "wms", "wrapper-startup", ctx.Node.Name)
	ctx.Proc.Sleep(e.Prm.WrapperStartup) // python invoker script startup
	ws.End()
	req := knative.Request{
		From:       ctx.Node.Name,
		PayloadIn:  task.inputBytes(),
		PayloadOut: task.outputBytes(),
		Work:       e.Cl.NextTaskWork() * task.effectiveWorkScale(),
		Parent:     ctx.Span,
	}
	if e.Staging != StageByValue {
		req.PayloadIn, req.PayloadOut = referenceBytes, referenceBytes
		req.StageIn, req.StageOut = t.stageIn, t.stageOut
	}
	_, err = svc.Invoke(ctx.Proc, req)
	return err
}

// stageIn and stageOut touch the data service from the execution node when
// remote staging is on; they are no-ops for condorio. With ScratchCache on,
// shared-fs staging keeps a scratch copy of every file that passes through
// a node: stage-out writes it alongside the share, and stage-in
// short-circuits to local scratch when the file is already resident — the
// residency the data-locality placement policy steers towards. The I/O
// spans nest under parent.
func (t *taskState) stageIn(p *sim.Proc, parent *trace.Span, node string) error {
	e, wf := t.d.e, t.d.wf
	for _, f := range wf.tasks[t.i].Inputs {
		var err error
		switch e.Staging {
		case StageSharedFS:
			if !e.Prm.ScratchCache {
				_, err = e.FS.Read(p, parent, node, f.LFN)
			} else if sc := e.Cl.MustNode(node).Scratch; sc.Has(f.LFN) {
				_, err = sc.Get(p, f.LFN)
			} else {
				var size int64
				if size, err = e.FS.Read(p, parent, node, f.LFN); err == nil {
					sc.Put(p, f.LFN, size)
				}
			}
		case StageObjectStore:
			_, err = e.Store.Get(p, parent, node, wf.Name, f.LFN)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (t *taskState) stageOut(p *sim.Proc, parent *trace.Span, node string) error {
	e, wf := t.d.e, t.d.wf
	for _, f := range wf.tasks[t.i].Outputs {
		switch e.Staging {
		case StageSharedFS:
			if e.Prm.ScratchCache {
				e.Cl.MustNode(node).Scratch.Put(p, f.LFN, f.Bytes)
			}
			e.FS.Write(p, parent, node, f.LFN, f.Bytes)
		case StageObjectStore:
			if err := e.Store.Put(p, parent, node, wf.Name, f.LFN, f.Bytes); err != nil {
				return err
			}
		}
	}
	return nil
}
