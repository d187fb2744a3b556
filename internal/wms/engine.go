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
	// Tasks holds every task's result in the workflow's declaration order,
	// a rescued task's carried over from the run that finished it.
	Tasks []*TaskResult
}

// Task returns the result of the task with the given ID, found through
// wf's index, or nil when the run holds none.
func (r *RunResult) Task(wf *Workflow, id string) *TaskResult {
	if i, ok := wf.index[id]; ok && int(i) < len(r.Tasks) {
		return r.Tasks[i]
	}
	return nil
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

	execs []*taskExec // recycled payload chains (see taskState.Run)
}

// flight is one task's in-flight attempt: the primary condor job plus any
// speculative hedge copies. Retired flights are recycled through the
// run's free list (see dagRun.freeFlight).
type flight struct {
	i       int32 // the task
	attempt *trace.Span
	copies  []flightCopy
	first   [1]flightCopy // copies' backing array until a hedge grows it
	// hedge is the event-driven hedge timer's step, bound once per struct.
	// gen counts the struct's retirements and armed is the gen its
	// pending timer was armed under, so a timer that outlives its attempt
	// sees that it is stale; a struct with a timer pending is recycled
	// only when the timer fires.
	hedge      func()
	gen, armed uint32
	pending    bool
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
	if _, err := wf.validateOnce(); err != nil {
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
		Tasks:     make([]*TaskResult, wf.Len()),
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
	if jobs := d.inFlight(); err == nil && (d.ndone != d.wf.Len() || jobs != 0) {
		err = fmt.Errorf("wms: workflow %s ended with %d of %d tasks settled, %d jobs in flight", d.wf.Name, d.ndone, d.wf.Len(), jobs)
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
// job's name is the task's prebuilt "<workflow>/<task>" name.
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
	return e.Pool.SubmitJob(condor.JobSpec{
		Name:                t.name(),
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
// errors, built once per workflow (see runPlan).
func (t *taskState) name() string {
	return t.d.plan.names[t.i]
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

// Run is the task's condor payload: its mode's chain on the claimed slot.
// Hedged copies of one task run at once, so each run carries its chain
// state in a taskExec of its own.
func (t *taskState) Run(ctx *condor.ExecContext, done func(error)) {
	x := t.d.e.newExec()
	x.t, x.ctx, x.done = t, ctx, done
	switch t.mode {
	case ModeContainer:
		x.startContainer()
	case ModeServerless:
		x.startServerless()
	default:
		x.stageIn()
	}
}

// taskExec is one job's payload in flight, a chain of continuations:
//
//   - native (Setup 1): the task runs straight on the claimed slot;
//   - container (Setup 2): the image came with the job, is loaded on the
//     worker, and a fresh container runs the task under a one-core quota;
//   - serverless (Setup 3): the original job is replaced by an invoker
//     wrapper, itself a condor job (the critical path includes it,
//     §IV-4). With by-value staging, inputs come to the wrapper's node and
//     travel to the function in the request body; with remote staging the
//     function's node reads the data service directly.
//
// Each step runs in the run-queue slot where a process waiting through the
// same steps would run (see condor.Runner); remote staging is a step too,
// a chain over the task's files (taskState.stageIn). Execs are recycled
// through the engine's free list and their callbacks are bound once per
// struct, so a warm native payload allocates nothing.
type taskExec struct {
	t     *taskState
	ctx   *condor.ExecContext
	done  func(error) // the job's report, called once by finish
	stage execStage
	err   error
	sp    *trace.Span // the open exec or wrapper-startup span
	// rt, image and c are the container mode's runtime, image and
	// container; svc is the serverless mode's function.
	rt    *crt.Runtime
	image string
	c     *crt.Container
	svc   *knative.Service

	// step, staged and invoked are advance, the staging's report and the
	// invocation's report, bound once per struct.
	step    func()
	staged  func(error)
	invoked func(knative.Response, error)
}

// execStage names the step a payload's chain runs next.
type execStage uint8

const (
	execStagedIn  execStage = iota // the task's inputs are staged in
	execRan                        // the task's work drained
	execStagedOut                  // the task's outputs are staged out
	execImported                   // container: the image is loaded
	execCreated                    // container: the create overhead elapsed
	execStarted                    // container: the start overhead elapsed
	execRemoved                    // container: the stop-remove overhead elapsed
	execWrapped                    // serverless: the invoker wrapper started
)

func (e *Engine) newExec() *taskExec {
	if n := len(e.execs); n > 0 {
		x := e.execs[n-1]
		e.execs[n-1] = nil
		e.execs = e.execs[:n-1]
		return x
	}
	x := &taskExec{}
	x.step = x.advance
	x.staged = func(err error) {
		x.err = err
		x.advance()
	}
	x.invoked = func(_ knative.Response, err error) { x.finish(err) }
	return x
}

// finish recycles the exec and reports err to the job.
func (x *taskExec) finish(err error) {
	e, done := x.t.d.e, x.done
	*x = taskExec{step: x.step, staged: x.staged, invoked: x.invoked}
	e.execs = append(e.execs, x)
	done(err)
}

// advance runs the chain's next step.
func (x *taskExec) advance() {
	switch x.stage {
	case execStagedIn:
		if x.err != nil {
			x.worked()
			return
		}
		x.exec()
	case execRan:
		x.sp.End()
		x.sp = nil
		x.stageOut()
	case execStagedOut:
		x.worked()
	case execImported:
		c, err := x.rt.BeginCreate(x.ctx.Span, x.image, 1, x.step)
		if err != nil {
			x.finish(err)
			return
		}
		x.c, x.stage = c, execCreated
	case execCreated:
		if err := x.c.EndCreate(); err != nil {
			x.finish(err)
			return
		}
		if x.err = x.c.BeginStart(x.ctx.Span, x.step); x.err != nil {
			x.stopRemove()
			return
		}
		x.stage = execStarted
	case execStarted:
		if x.err = x.c.EndStart(); x.err != nil {
			x.stopRemove()
			return
		}
		x.stageIn()
	case execRemoved:
		x.c.EndStopRemove()
		x.finish(x.err)
	case execWrapped:
		x.sp.End()
		x.sp = nil
		x.invoke()
	}
}

// stageIn fetches the task's inputs onto the node. By value they came in
// the job's sandbox; remote staging reads them from the data service.
func (x *taskExec) stageIn() {
	if x.t.d.e.Staging == StageByValue {
		x.exec()
		return
	}
	x.stage = execStagedIn
	x.t.stageIn(x.ctx.Span, x.ctx.Node.Name, x.staged)
}

// stageOut writes the task's outputs back, as stageIn reads its inputs.
func (x *taskExec) stageOut() {
	if x.t.d.e.Staging == StageByValue {
		x.worked()
		return
	}
	x.stage = execStagedOut
	x.t.stageOut(x.ctx.Span, x.ctx.Node.Name, x.staged)
}

// exec runs the task's work: on the slot's node, or in the container.
func (x *taskExec) exec() {
	e, task, node := x.t.d.e, x.t.d.wf.tasks[x.t.i], x.ctx.Node
	x.stage = execRan
	if x.t.mode != ModeContainer {
		x.sp = x.t.span(x.ctx.Span, "exec", "exec", node.Name)
		node.ExecReservedThen(e.Cl.NextTaskWork()*task.effectiveWorkScale(), 1, 0, x.step)
		return
	}
	if x.err = x.c.ExecThen(x.ctx.Span, e.Cl.NextTaskWork()*task.effectiveWorkScale(), x.step); x.err != nil {
		x.stopRemove()
	}
}

// worked ends the payload once its work and staging are over or one of
// them failed: a container is torn down first.
func (x *taskExec) worked() {
	if x.t.mode == ModeContainer {
		x.stopRemove()
		return
	}
	x.finish(x.err)
}

// startContainer loads the job's image into the node's runtime.
func (x *taskExec) startContainer() {
	node := x.ctx.Node.Name
	rt, ok := x.t.d.e.Runtimes[node]
	if !ok {
		x.finish(fmt.Errorf("wms: no container runtime on %s", node))
		return
	}
	img, _, err := x.t.resources()
	if err != nil {
		x.finish(err)
		return
	}
	x.rt, x.image, x.stage = rt, img.Name, execImported
	rt.ImportImageThen(x.ctx.Span, img, x.step)
}

// stopRemove tears the container down on every exit so a retried attempt
// starts from a clean slate — leaking a container per failed attempt would
// make resubmission non-idempotent (and slowly eat the node under fault
// injection). The payload ends with its first error.
func (x *taskExec) stopRemove() {
	if err := x.c.BeginStopRemove(x.ctx.Span, x.step); err != nil {
		if x.err == nil {
			x.err = err
		}
		x.finish(x.err)
		return
	}
	x.stage = execRemoved
}

// startServerless starts the invoker wrapper.
func (x *taskExec) startServerless() {
	_, svc, err := x.t.resources()
	if err != nil {
		x.finish(err)
		return
	}
	e := x.t.d.e
	x.svc = svc
	x.sp = x.t.span(x.ctx.Span, "wms", "wrapper-startup", x.ctx.Node.Name)
	x.stage = execWrapped
	e.Env.Delay(e.Prm.WrapperStartup, x.step) // python invoker script startup
}

// invoke calls the task's function with the task's files in the request
// body, or with references to them under remote staging.
func (x *taskExec) invoke() {
	t := x.t
	e, task := t.d.e, t.d.wf.tasks[t.i]
	req := knative.Request{
		From:       x.ctx.Node.Name,
		PayloadIn:  task.inputBytes(),
		PayloadOut: task.outputBytes(),
		Work:       e.Cl.NextTaskWork() * task.effectiveWorkScale(),
		Parent:     x.ctx.Span,
	}
	if e.Staging != StageByValue {
		req.PayloadIn, req.PayloadOut = referenceBytes, referenceBytes
		req.StageIn, req.StageOut = t.stageIn, t.stageOut
	}
	x.svc.InvokeAsync(req, x.invoked)
}

// stageIn and stageOut move the task's files between the node and the
// data service under remote staging, one file after another, and hand the
// first error, or nil, to done; they are the serverless request's staging
// hooks too. With ScratchCache on, shared-fs staging keeps a scratch copy
// of every file that passes through a node: stage-out writes it alongside
// the share, and stage-in short-circuits to local scratch when the file is
// already resident — the residency the data-locality placement policy
// steers towards. The I/O spans nest under parent.
func (t *taskState) stageIn(parent *trace.Span, node string, done func(error)) {
	e, wf := t.d.e, t.d.wf
	inputs := wf.tasks[t.i].Inputs
	var next func(int64, error)
	next = func(_ int64, err error) {
		if err != nil || len(inputs) == 0 {
			done(err)
			return
		}
		f := inputs[0]
		inputs = inputs[1:]
		switch {
		case e.Staging == StageObjectStore:
			e.Store.GetThen(parent, node, wf.Name, f.LFN, next)
		case !e.Prm.ScratchCache:
			e.FS.ReadThen(parent, node, f.LFN, next)
		default:
			sc := e.Cl.MustNode(node).Scratch
			if sc.Has(f.LFN) {
				sc.GetThen(f.LFN, next)
				return
			}
			e.FS.ReadThen(parent, node, f.LFN, func(size int64, err error) {
				if err != nil {
					next(0, err)
					return
				}
				sc.PutThen(f.LFN, size, func() { next(size, nil) })
			})
		}
	}
	next(0, nil)
}

func (t *taskState) stageOut(parent *trace.Span, node string, done func(error)) {
	e, wf := t.d.e, t.d.wf
	outputs := wf.tasks[t.i].Outputs
	var next func(error)
	next = func(err error) {
		if err != nil || len(outputs) == 0 {
			done(err)
			return
		}
		f := outputs[0]
		outputs = outputs[1:]
		switch {
		case e.Staging == StageObjectStore:
			e.Store.PutThen(parent, node, wf.Name, f.LFN, f.Bytes, next)
		case e.Prm.ScratchCache:
			e.Cl.MustNode(node).Scratch.PutThen(f.LFN, f.Bytes, func() {
				e.FS.WriteThen(parent, node, f.LFN, f.Bytes, func() { next(nil) })
			})
		default:
			e.FS.WriteThen(parent, node, f.LFN, f.Bytes, func() { next(nil) })
		}
	}
	next(nil)
}
