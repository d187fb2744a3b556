// Package kube is a minimal Kubernetes control plane: an API object store
// for pods, a least-loaded scheduler, and one kubelet per worker node that
// reconciles bound pods into containers (pull image → create → start →
// readiness). It provides exactly the substrate Knative Serving needs —
// pod lifecycle with observable readiness — including the latency sources
// that make up a serverless cold start.
package kube

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/cplane"
	"repro/internal/crt"
	"repro/internal/faults"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Phase is a pod lifecycle phase.
type Phase uint8

// Pod phases.
const (
	PhasePending Phase = iota
	PhaseScheduled
	PhaseStarting
	PhaseRunning
	PhaseFailed
	PhaseDead
)

func (ph Phase) String() string {
	switch ph {
	case PhasePending:
		return "Pending"
	case PhaseScheduled:
		return "Scheduled"
	case PhaseStarting:
		return "Starting"
	case PhaseRunning:
		return "Running"
	case PhaseFailed:
		return "Failed"
	case PhaseDead:
		return "Dead"
	default:
		return fmt.Sprintf("Phase(%d)", int(ph))
	}
}

// PodSpec describes a pod to create.
type PodSpec struct {
	// Name must be unique among live pods.
	Name string
	// Image is the container image to run.
	Image string
	// CPURequest is the scheduler's resource request in cores.
	CPURequest float64
	// MemMB is the memory request, admission-checked on the node.
	MemMB int
	// CapCores is the cgroup CPU quota applied to the container
	// (0 = uncapped).
	CapCores float64
	// AppInit is the in-container application initialisation time before
	// the pod can pass readiness (e.g. python + flask + numpy import).
	AppInit time.Duration
}

// Pod is a scheduled unit of work.
type Pod struct {
	Spec     PodSpec
	NodeName string

	node      *cluster.Node // set with NodeName at bind
	readyF    sim.Future[error]
	container *crt.Container // set at create
	createdAt time.Duration
	readyAt   time.Duration

	// The bring-up chain (see Kube.advance): the step continuation, bound
	// once per pod; the pod-bringup span; the readiness error of a failed
	// bring-up, kept while its container is removed; and the stage the
	// chain runs next.
	step  func()
	sp    *trace.Span
	err   error
	stage bringStage

	phase     Phase
	ready     bool
	deleted   bool
	accounted bool // counted in per-node requested-resource accounting
}

// bringStage names the step a pod's bring-up chain runs next.
type bringStage uint8

const (
	stageAdmit     bringStage = iota // admission, then the image
	stageCreated                     // the create overhead has elapsed
	stageStarted                     // the start overhead has elapsed
	stageInited                      // the app init has elapsed
	stageProbed                      // the readiness probe ticked
	stageStatus                      // the Ready status write propagated
	stageFailed                      // a failed bring-up's container is removed
	stageCancelled                   // a deleted bring-up's container is removed
	stageTornDown                    // a deleted running pod's container is removed
)

// CreatedAt returns the virtual time the pod was submitted (CreatePod).
// ReadyAt − CreatedAt is the pod's placement latency: scheduling wait,
// control-plane propagation, and bring-up.
func (pod *Pod) CreatedAt() time.Duration { return pod.createdAt }

// Node returns the worker the pod is bound to, nil before binding.
func (pod *Pod) Node() *cluster.Node { return pod.node }

// Phase returns the pod's current phase.
func (pod *Pod) Phase() Phase { return pod.phase }

// Ready reports whether the pod is serving.
func (pod *Pod) Ready() bool { return pod.ready }

// ReadyAt returns the virtual time the pod became ready.
func (pod *Pod) ReadyAt() time.Duration { return pod.readyAt }

// ExecThen runs work core-seconds in the pod's container, its span nested
// under parent, and then runs once the work completes. It fails, arming
// nothing, if the pod is not running.
func (pod *Pod) ExecThen(parent *trace.Span, work float64, then func()) error {
	if !pod.ready || pod.container == nil {
		return fmt.Errorf("kube: pod %s not ready", pod.Spec.Name)
	}
	return pod.container.ExecThen(parent, work, then)
}

type podOp struct {
	pod    *Pod
	delete bool
}

// nodeShape is a distinct (cores, memMB) worker configuration. fitsEver
// scans shapes instead of nodes: clusters have a handful of machine types,
// so the "could this ever fit" check is O(shapes), not O(nodes).
type nodeShape struct {
	cores int
	memMB int
}

// placeScore is the score of kube's placement policy, resolved from its
// name once at New. Image-locality ties break by bin-packing, not
// spreading: a scale-up burst binds its pods before the first pull
// completes, and spreading them would seed pulls everywhere.
type placeScore uint8

const (
	leastRequested placeScore = iota // −requested CPU: the seed's spreading
	binPack                          // +requested CPU: pack onto few nodes
	spread                           // −live pods on the node
	imageLocality                    // 1000·(image present) + requested CPU
)

var placeScores = map[string]placeScore{
	sched.PolicyLeastRequested: leastRequested, sched.PolicyBinPack: binPack,
	sched.PolicySpread: spread, sched.PolicyImageLocality: imageLocality,
}

// Kube is the control plane plus its kubelets.
type Kube struct {
	env     *sim.Env
	cl      *cluster.Cluster
	prm     config.Params
	cp      *cplane.Plane
	pods    map[string]*Pod
	faults  *faults.Injector
	started bool
	stopped bool

	// The scheduler (schedule, bound once in sched) is the handler of
	// schedQ; placing is the pod it holds through SchedulerLatency.
	schedQ  *sim.Chan[*Pod]
	sched   func()
	placing *Pod

	// Per-node state, indexed by cluster.Node.Index (the worker's position
	// in cl.Workers), so neither placement nor the pod lifecycle hashes a
	// node name. reqCPU/reqMemMB/podsOn are the requested resources and
	// live pods maintained on bind/unbind (O(1) per decision, replacing the
	// seed's O(nodes×pods) store rescan, which the tests keep as their
	// oracle). Each kubelet is the handler of its node's nodeQ.
	nodeQ    []*sim.Chan[podOp]
	runtimes []*crt.Runtime
	cordoned []bool
	reqCPU   []float64
	reqMemMB []int
	podsOn   []int

	// Placement: policy is the policy's name (for traces) and score its
	// score in evalNode; target is the sampling target over the workers
	// (sched.SampleTarget), and schedOffset rotates the visit window when
	// SchedSamplePercent is set; picks counts placement decisions for the
	// regression tests. shapes backs fitsEver; pending
	// holds pods that fit no node right now, re-queued when capacity frees —
	// but only when the freed node could actually take one
	// (pendMinCPU/pendMinMem are conservative per-dimension minima over the
	// pending pods' requests, so a deletion storm of small pods cannot
	// trigger quadratic rescans of an unsatisfiable pending set).
	policy      string
	score       placeScore
	target      int
	shapes      []nodeShape
	pending     []*Pod
	pendMinCPU  float64
	pendMinMem  int
	schedOffset int
	picks       int
}

// New builds a control plane over the cluster's worker nodes (the submit
// node hosts the control plane itself, as in the paper's setup, and runs no
// pods). The runtimes may be shared with other consumers (e.g. the batch
// system's container universe); pass crt.NewSet(...) when nothing else needs
// them. The placement policy is prm.KubePlacementPolicy; the empty name
// selects the seed scheduler's least-requested CPU with stable node-order
// tie-breaking.
func New(env *sim.Env, cl *cluster.Cluster, runtimes crt.Set, prm config.Params) *Kube {
	n := len(cl.Workers)
	k := &Kube{
		env:      env,
		cl:       cl,
		prm:      prm,
		cp:       cplane.New(env, prm),
		pods:     make(map[string]*Pod),
		nodeQ:    make([]*sim.Chan[podOp], n),
		runtimes: make([]*crt.Runtime, n),
		cordoned: make([]bool, n),
		reqCPU:   make([]float64, n),
		reqMemMB: make([]int, n),
		podsOn:   make([]int, n),
		policy:   cmp.Or(prm.KubePlacementPolicy, sched.PolicyLeastRequested),
		target:   sched.SampleTarget(n, prm.SchedSamplePercent),
	}
	k.sched = k.schedule
	k.schedQ = sim.NewUnbounded[*Pod](env, k.sched)
	for i, w := range cl.Workers {
		k.nodeQ[i] = sim.NewUnbounded[podOp](env, func() { k.kubelet(i) })
		k.runtimes[i] = runtimes[w.Name]
		if shape := (nodeShape{cores: w.Cores, memMB: w.MemMB}); !slices.Contains(k.shapes, shape) {
			k.shapes = append(k.shapes, shape)
		}
	}
	var ok bool
	if k.score, ok = placeScores[k.policy]; !ok {
		panic(fmt.Sprintf("kube: unknown KubePlacementPolicy %q (valid: %s, %s, %s, %s)", k.policy,
			sched.PolicyLeastRequested, sched.PolicyBinPack, sched.PolicySpread, sched.PolicyImageLocality))
	}
	if pct := prm.SchedSamplePercent; pct < 0 || pct > 100 {
		panic(fmt.Sprintf("kube: SchedSamplePercent %d outside [0, 100]", pct))
	}
	return k
}

// ControlPlane exposes the control-plane cost model, shared with the
// serving layer so autoscaler traffic contends on the same apiserver.
func (k *Kube) ControlPlane() *cplane.Plane { return k.cp }

// worker resolves a worker node by name: nil for unknown names and for the
// submit node, which runs no pods.
func (k *Kube) worker(name string) *cluster.Node {
	if n, ok := k.cl.Node(name); ok && n.Index >= 0 {
		return n
	}
	return nil
}

// Runtime exposes a node's container runtime (used to pre-pull images and
// by tests).
func (k *Kube) Runtime(node string) *crt.Runtime {
	if w := k.worker(node); w != nil {
		return k.runtimes[w.Index]
	}
	return nil
}

// Workers returns the schedulable node names in stable order.
func (k *Kube) Workers() []string {
	names := make([]string, len(k.cl.Workers))
	for i, w := range k.cl.Workers {
		names[i] = w.Name
	}
	return names
}

// Start launches the scheduler and the kubelets, the handlers of their work
// queues. It must be called once, from outside or inside simulation
// context, before pods are created. The scheduler's first drain takes the
// run-queue slot of a process spawned now; the kubelets' run here, since
// nothing reaches a node's queue before the scheduler's first bind.
func (k *Kube) Start() {
	if k.started {
		panic("kube: Start called twice")
	}
	k.started = true
	k.env.Defer(k.sched)
	for i := range k.nodeQ {
		k.kubelet(i)
	}
}

// Shutdown closes the scheduler's work queue; operations queued before it
// (including pending pod deletions) still drain. Call it after deleting
// all pods to let the simulation finish. The kubelet queues stay open:
// deliver drops every op once the control plane has stopped, so a kubelet
// drains what it holds and then waits on a queue nothing sends to.
func (k *Kube) Shutdown() {
	k.stopped = true
	k.schedQ.Close()
}

// CreatePod registers a pod and queues it for scheduling. It does not
// block; wait for readiness with WaitReady.
func (k *Kube) CreatePod(spec PodSpec) (*Pod, error) {
	if !k.started {
		return nil, fmt.Errorf("kube: control plane not started")
	}
	if k.stopped {
		return nil, fmt.Errorf("kube: control plane shut down")
	}
	if _, exists := k.pods[spec.Name]; exists {
		return nil, fmt.Errorf("kube: pod %q already exists", spec.Name)
	}
	pod := &Pod{Spec: spec, phase: PhasePending, createdAt: k.env.Now()}
	k.pods[spec.Name] = pod
	k.schedQ.Send(pod)
	return pod, nil
}

// DeletePod removes a pod: if still pending it is cancelled, and its
// readiness resolves with an error; otherwise the owning kubelet tears the
// container down. The control-plane store releases the pod's requests
// immediately (the scheduler sees the deletion write), while the kubelet
// observes it one deletion-propagation delay later.
func (k *Kube) DeletePod(name string) {
	pod, ok := k.pods[name]
	if !ok {
		return
	}
	delete(k.pods, name)
	pod.deleted = true
	pod.ready = false
	if pod.node != nil {
		k.unbind(pod)
		k.deliver(podOp{pod: pod, delete: true}, k.cp.DeleteDelay())
		return
	}
	// A pending pod is dropped by the scheduler and the pending list, and
	// never bound, so its readiness resolves here. (A pod that fits no node
	// has resolved already.)
	if !pod.readyF.Done() {
		pod.phase = PhaseDead
		pod.readyF.Set(fmt.Errorf("kube: pod %s deleted while pending", name))
	}
}

// deliver hands a pod operation to a node's kubelet after the control
// plane's propagation delay. The zero-delay path is the seed's in-process
// send — no event is scheduled, so inactive planes stay byte-identical.
// Once Shutdown has closed the kubelet queues the op is dropped: the
// scheduler can still bind a pod it held across Shutdown.
func (k *Kube) deliver(op podOp, delay time.Duration) {
	if delay > 0 {
		k.env.After(delay, func() { k.deliver(op, 0) })
	} else if !k.stopped {
		k.nodeQ[op.pod.node.Index].Send(op)
	}
}

// AttachFaults connects the control plane to the fault injector: a node
// crash (KindNodeCrash) drains the node — evicting its pods — and uncordons
// it when the reboot window ends; KindColdStartFail activates probabilistic
// pod bring-up failures after container start (readiness never reached).
func (k *Kube) AttachFaults(in *faults.Injector) {
	k.faults = in
	in.OnFault(faults.KindNodeCrash, func(f faults.Fault, begin bool) {
		if k.worker(f.Target) == nil {
			return
		}
		if begin {
			k.drainNode(f.Target)
		} else {
			k.uncordonNode(f.Target)
		}
	})
}

// cordonNode marks a node unschedulable (kubectl cordon).
func (k *Kube) cordonNode(name string) {
	if w := k.worker(name); w != nil {
		k.cordoned[w.Index] = true
	}
}

// uncordonNode makes a node schedulable again and retries pending pods.
func (k *Kube) uncordonNode(name string) {
	if w := k.worker(name); w != nil {
		k.cordoned[w.Index] = false
	}
	k.kickPending()
}

// drainNode cordons a node and deletes every pod bound to it (kubectl
// drain) — maintenance, spot reclamation, or failure. Workload controllers
// (the knative autoscaler here) replace the pods elsewhere.
func (k *Kube) drainNode(name string) {
	k.cordonNode(name)
	var victims []string
	for podName, pod := range k.pods {
		if pod.NodeName == name {
			victims = append(victims, podName)
		}
	}
	sort.Strings(victims) // deterministic eviction order
	for _, podName := range victims {
		k.DeletePod(podName)
	}
}

// WaitReady blocks until the pod becomes ready or fails, returning a non-nil
// error in the failure case.
func (k *Kube) WaitReady(p *sim.Proc, pod *Pod) error {
	return pod.readyF.Get(p)
}

// OnReady is the continuation form of a process spawned now that calls
// WaitReady: fn runs in scheduler context with the pod's readiness result,
// at the point in the run where that process would have returned from
// WaitReady.
func (k *Kube) OnReady(pod *Pod, fn func(error)) {
	k.env.Defer(func() {
		pod.readyF.Then(k.env, func() { fn(pod.readyF.Value()) })
	})
}

// schedule is the scheduler: it binds each queued pod, held in placing
// through SchedulerLatency, to the node chosen by the configured placement
// policy (default: lowest requested CPU, ties broken by stable node order).
// A pod that fits no node right now — but could once capacity frees — stays
// Pending and is retried on pod deletion and uncordon; only a pod that can
// never fit any node is failed outright.
func (k *Kube) schedule() {
	if pod := k.placing; pod != nil {
		k.placing = nil
		best, feasible, _ := k.pickNode(&pod.Spec)
		switch {
		case best >= 0:
			if tr := trace.FromEnv(k.env); tr != nil {
				dec := k.decision(&pod.Spec, best, feasible)
				sched.Record(tr, nil, "kube", k.policy, pod.Spec.Name, dec)
			}
			k.bind(pod, k.cl.Workers[best])
			k.deliver(podOp{pod: pod}, k.cp.BindDelay())
		case k.fitsEver(pod.Spec):
			k.addPending(pod)
		case !pod.deleted: // a deleted pod resolved at DeletePod
			pod.phase = PhaseFailed
			pod.readyF.Set(fmt.Errorf("kube: no node fits pod %s", pod.Spec.Name))
		}
	}
	for {
		pod, ok := k.schedQ.Recv()
		if !ok {
			return
		}
		if !pod.deleted {
			k.placing = pod
			k.env.Delay(k.prm.SchedulerLatency, k.sched)
			return
		}
	}
}

// pickNode chooses the pod's node with one sched.Scan over the workers,
// each evaluated by evalNode. It returns the winner's worker index (-1 when
// no node fits now) and the scan's feasible and visited counts.
func (k *Kube) pickNode(spec *PodSpec) (best, feasible, visited int) {
	k.picks++
	offset := 0
	if k.prm.SchedSamplePercent > 0 {
		// Rotate the sampling window so no suffix of the node list is
		// permanently shadowed. Without sampling the offset stays 0 — the
		// seed's stable node-order tie-breaking.
		offset = k.schedOffset
		k.schedOffset++
	}
	return sched.Scan(len(k.cl.Workers), offset, k.target, func(i int) (float64, bool) {
		return k.evalNode(spec, i)
	})
}

// evalNode is kube's placement evaluation of worker i, fused into one pass
// over the per-node slices: the cordon, mem-fit and cpu-fit filters, then
// the policy's total score. Memory fit reads the node's admission-time
// reservations (ReserveMem), not scheduler-time requests, as the seed
// scheduler did: a deleted pod's memory keeps the node infeasible until its
// teardown releases it. A total is the weighted plugin sum started at 0, so
// an idle node's least-requested total is +0 while its plugin value (see
// decision) is −0; the 0± terms below keep both bit for bit.
func (k *Kube) evalNode(spec *PodSpec, i int) (float64, bool) {
	w, r := k.cl.Workers[i], k.reqCPU[i]
	if k.cordoned[i] || w.MemUsedMB()+spec.MemMB > w.MemMB || r+spec.CPURequest > float64(w.Cores) {
		return 0, false
	}
	switch k.score {
	case binPack:
		return 0 + r, true
	case spread:
		return 0 - float64(k.podsOn[i]), true
	case imageLocality:
		return 1000*k.hasImage(i, spec.Image) + r, true
	default:
		return 0 - r, true
	}
}

// hasImage is the image-locality plugin: 1 when worker i holds the image.
func (k *Kube) hasImage(i int, image string) float64 {
	if rt := k.runtimes[i]; image != "" && rt != nil && rt.HasImage(image) {
		return 1
	}
	return 0
}

// decision is the traced form of a placement on worker best: the winner,
// its total, and its raw score per plugin in policy order. It is built only
// with a tracer attached, so an untraced placement allocates nothing.
func (k *Kube) decision(spec *PodSpec, best, feasible int) sched.Decision {
	r := k.reqCPU[best]
	total, _ := k.evalNode(spec, best)
	var per []sched.PluginScore
	switch k.score {
	case binPack:
		per = []sched.PluginScore{{Plugin: sched.PolicyBinPack, Value: r}}
	case spread:
		per = []sched.PluginScore{{Plugin: sched.PolicySpread, Value: -float64(k.podsOn[best])}}
	case imageLocality:
		per = []sched.PluginScore{{Plugin: sched.PolicyImageLocality, Value: k.hasImage(best, spec.Image)},
			{Plugin: sched.PolicyBinPack, Value: r}}
	default:
		per = []sched.PluginScore{{Plugin: sched.PolicyLeastRequested, Value: -r}}
	}
	return sched.Decision{Node: k.cl.Workers[best].Name, Score: total, PerPlugin: per, Feasible: feasible}
}

// Picks returns the number of placement decisions evaluated so far (for
// scheduler-load regression tests).
func (k *Kube) Picks() int { return k.picks }

// fitsEver reports whether some worker could take the pod on an otherwise
// empty cluster (cordons ignored — they lift). False means waiting is
// pointless: the pod must fail. It scans the distinct node shapes, not the
// nodes, so it stays O(1)-ish at thousands of homogeneous workers.
func (k *Kube) fitsEver(spec PodSpec) bool {
	for _, s := range k.shapes {
		if spec.MemMB <= s.memMB && spec.CPURequest <= float64(s.cores) {
			return true
		}
	}
	return false
}

// bind assigns the pod to a node and charges its requests to the node's
// accounting.
func (k *Kube) bind(pod *Pod, node *cluster.Node) {
	pod.NodeName, pod.node = node.Name, node
	pod.phase = PhaseScheduled
	pod.accounted = true
	k.reqCPU[node.Index] += pod.Spec.CPURequest
	k.reqMemMB[node.Index] += pod.Spec.MemMB
	k.podsOn[node.Index]++
}

// unbind releases a bound pod's requested resources (idempotent via the
// accounted flag — every terminal path calls it) and retries pending pods,
// since capacity just freed on the pod's node.
func (k *Kube) unbind(pod *Pod) {
	if !pod.accounted {
		return
	}
	pod.accounted = false
	i := pod.node.Index
	k.reqCPU[i] -= pod.Spec.CPURequest
	k.reqMemMB[i] -= pod.Spec.MemMB
	k.podsOn[i]--
	k.kickPendingFor(pod.node)
}

// addPending records a pod that fits no node right now and folds its
// requests into the conservative per-dimension minima the kick gate checks.
func (k *Kube) addPending(pod *Pod) {
	if len(k.pending) == 0 || pod.Spec.CPURequest < k.pendMinCPU {
		k.pendMinCPU = pod.Spec.CPURequest
	}
	if len(k.pending) == 0 || pod.Spec.MemMB < k.pendMinMem {
		k.pendMinMem = pod.Spec.MemMB
	}
	k.pending = append(k.pending, pod)
}

// kickPendingFor re-queues the pending pods when capacity freed on node
// could actually take one of them. The gate compares the node's free CPU
// (scheduler accounting) and free memory (admission accounting) against the
// per-dimension minima of the pending pods' requests — exactly the
// quantities the cpu-fit/mem-fit filters would check. It can only err towards
// kicking (the minima may belong to different pods, and deleted pending
// pods can leave them stale-low), never towards stranding a schedulable
// pod: a pod the filters would accept on this node necessarily clears both
// minima. A deletion storm of small pods against an unsatisfiable pending
// set therefore triggers zero rescans instead of deletions×pending Picks.
func (k *Kube) kickPendingFor(node *cluster.Node) {
	if len(k.pending) == 0 {
		return
	}
	if k.cordoned[node.Index] {
		return // freed capacity is unschedulable until uncordon, which kicks
	}
	if float64(node.Cores)-k.reqCPU[node.Index] < k.pendMinCPU || node.MemMB-node.MemUsedMB() < k.pendMinMem {
		return
	}
	k.kickPending()
}

// kickPending unconditionally re-queues every pending pod.
func (k *Kube) kickPending() {
	if k.stopped || len(k.pending) == 0 {
		return
	}
	pend := k.pending
	k.pending = nil
	for _, pod := range pend {
		if pod.deleted {
			continue
		}
		k.schedQ.Send(pod)
	}
}

// kubelet reconciles the pods bound to worker i. Pod startups proceed in
// parallel (the kubelet does not serialize unrelated pods); image-layer
// pulls still contend on the network. A bring-up is a chain of steps (see
// advance); its first step waits its turn in the run queue like any newly
// started work. A teardown stops the drain until stageTornDown resumes it.
func (k *Kube) kubelet(i int) {
	q := k.nodeQ[i]
	for {
		op, ok := q.Recv()
		if !ok {
			return
		}
		switch pod := op.pod; {
		case !op.delete:
			pod.step = func() { k.advance(pod) }
			k.env.Defer(pod.step)
		case pod.phase != PhaseRunning:
			// A pod still starting up is cleaned up by its own bring-up
			// chain (which observes pod.deleted at its next check); tearing
			// it down here would double-release its resources.
		case pod.container != nil && pod.container.State() == crt.StateRunning:
			pod.stage = stageTornDown
			_ = pod.container.BeginStopRemove(nil, pod.step) // running, so not yet removed
			return
		default:
			k.retire(pod)
		}
	}
}

// advance runs the next step of a bound pod's bring-up. The bring-up's
// duration is the cold-start cost: admission + image pull (if absent) +
// container create + start + app init + readiness probe (+ the status
// write). Each wait arms pod.step, which runs in the event callback when
// the wait ends, or from the back of the run queue for a zero wait: since
// an event fires only on an empty run queue, the chain keeps every
// (at, seq), run-queue order and RNG draw a process sleeping through the
// same waits would have. Pulling an absent image is one more stage: the
// runtime's pull chain continues the bring-up where it ends (see pulled).
// The chain also runs a running pod's teardown (stageTornDown), which
// resumes its kubelet's drain.
func (k *Kube) advance(pod *Pod) {
	node := pod.node
	switch pod.stage {
	case stageAdmit:
		pod.sp = trace.FromEnv(k.env).Start(nil, "kube", "pod-bringup",
			trace.L("pod", pod.Spec.Name), trace.L("node", node.Name))
		if pod.deleted {
			k.endBringUp(pod, PhaseDead, "cancelled",
				fmt.Errorf("kube: pod %s deleted before startup", pod.Spec.Name))
			return
		}
		if err := node.ReserveMem(pod.Spec.MemMB); err != nil {
			k.endBringUp(pod, PhaseFailed, "failed", err)
			return
		}
		pod.phase = PhaseStarting
		if rt := k.runtimes[node.Index]; !rt.HasImage(pod.Spec.Image) {
			rt.PullThen(pod.sp, pod.Spec.Image, func(err error) { k.pulled(pod, err) })
			return
		}
		k.create(pod)
	case stageCreated:
		if err := pod.container.EndCreate(); err != nil {
			pod.container = nil
			node.ReleaseMem(pod.Spec.MemMB)
			k.endBringUp(pod, PhaseFailed, "failed", err)
			return
		}
		pod.stage = stageStarted
		_ = pod.container.BeginStart(pod.sp, pod.step) // a fresh container starts
	case stageStarted:
		if err := pod.container.EndStart(); err != nil {
			k.remove(pod, stageFailed, err)
			return
		}
		if k.faults != nil && k.faults.Roll(faults.KindColdStartFail, node.Name) {
			// The container came up but the application inside it crashed
			// before readiness (bad init, OOM, crash loop).
			k.remove(pod, stageFailed,
				faults.Transientf("kube: pod %s: injected cold-start failure on %s", pod.Spec.Name, node.Name))
			return
		}
		pod.stage = stageInited
		k.env.Delay(pod.Spec.AppInit, pod.step)
	case stageInited:
		// Readiness is observed at the next probe tick.
		pod.stage = stageProbed
		k.env.Delay(k.prm.ReadinessProbeInterval, pod.step)
	case stageProbed, stageStatus:
		if pod.deleted { // deleted during startup; tear down now
			k.remove(pod, stageCancelled, nil)
			return
		}
		// The kubelet posts the Ready condition to the control plane;
		// watchers (the serving layer's WaitReady) observe it after the
		// status write propagates. Zero delay = the seed's instantaneous
		// readiness.
		if pod.stage == stageProbed {
			if d := k.cp.StatusDelay(); d > 0 {
				pod.stage = stageStatus
				k.env.After(d, pod.step)
				return
			}
		}
		pod.phase = PhaseRunning
		pod.ready = true
		pod.readyAt = k.env.Now()
		pod.readyF.Set(nil)
		pod.sp.End()
	case stageFailed:
		pod.container.EndStopRemove()
		node.ReleaseMem(pod.Spec.MemMB)
		k.endBringUp(pod, PhaseFailed, "failed", pod.err)
	case stageCancelled:
		pod.container.EndStopRemove()
		node.ReleaseMem(pod.Spec.MemMB)
		k.endBringUp(pod, PhaseDead, "cancelled",
			fmt.Errorf("kube: pod %s deleted during startup", pod.Spec.Name))
	case stageTornDown:
		pod.container.EndStopRemove()
		node.ReleaseMem(pod.Spec.MemMB)
		k.retire(pod)
		k.kubelet(node.Index)
	}
}

// pulled is the bring-up's step after pulling an absent image: it arms the
// create, or ends the bring-up of a failed pull.
func (k *Kube) pulled(pod *Pod, err error) {
	if err != nil {
		pod.node.ReleaseMem(pod.Spec.MemMB)
		k.endBringUp(pod, PhaseFailed, "failed", err)
		return
	}
	k.create(pod)
}

// create arms the container create of a pod whose image is present.
func (k *Kube) create(pod *Pod) {
	pod.stage = stageCreated
	c, err := k.runtimes[pod.node.Index].BeginCreate(pod.sp, pod.Spec.Image, pod.Spec.CapCores, pod.step)
	if err != nil {
		pod.node.ReleaseMem(pod.Spec.MemMB)
		k.endBringUp(pod, PhaseFailed, "failed", err)
		return
	}
	pod.container = c
}

// remove arms the stop-remove of the container of a bring-up that cannot
// finish; the chain then ends it at stage end (stageFailed, reporting err,
// or stageCancelled).
func (k *Kube) remove(pod *Pod, end bringStage, err error) {
	pod.stage, pod.err = end, err
	_ = pod.container.BeginStopRemove(pod.sp, pod.step) // the bring-up owns it
}

// endBringUp ends a bring-up that did not reach readiness: the pod leaves
// in phase with readiness error err, and its requests are released.
func (k *Kube) endBringUp(pod *Pod, phase Phase, status string, err error) {
	pod.sp.SetLabel("status", status)
	pod.phase = phase
	k.unbind(pod)
	// A pod deleted while the scheduler held it is still bound and brought
	// up, but its readiness resolved at DeletePod.
	if !pod.readyF.Done() {
		pod.readyF.Set(err)
	}
	pod.sp.End()
}

// retire ends a deleted running pod whose container is gone.
func (k *Kube) retire(pod *Pod) {
	pod.phase = PhaseDead
	pod.ready = false
	k.unbind(pod) // normally already unbound at DeletePod; idempotent
	k.kickPendingFor(pod.node)
}
