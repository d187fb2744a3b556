// Package config centralises every calibrated model parameter of the
// reproduction, each documented with its provenance: either a number the
// paper states directly (§ references below), or a value chosen so that the
// end-to-end experiments land on the shapes the paper reports. EXPERIMENTS.md
// records the resulting paper-vs-measured comparison.
package config

import "time"

// Params is the complete parameter set for the simulated testbed. Obtain the
// calibrated defaults with Default and override fields for ablations.
type Params struct {
	// ---- Cluster (paper §V-A: four VMs, 8 cores and 32 GB each; one VM is
	// the Condor submit node and Kubernetes control plane) ----

	// WorkerNodes is the number of execution nodes (the paper's 4 VMs minus
	// the submit/control-plane node).
	WorkerNodes int
	// CoresPerNode is the per-VM core count (§V-A).
	CoresPerNode int
	// MemMBPerNode is the per-VM memory (§V-A: 32 GB).
	MemMBPerNode int

	// ---- Network ----

	// WorkerLinkBps is worker↔worker bandwidth. Cloud VM default, 10 Gb/s.
	WorkerLinkBps float64
	// SubmitUplinkBps is the submit node's uplink. All condor file
	// transfers (input matrices, and in container mode the image itself)
	// serialize through this link; it is the mechanism behind the steep
	// container slope in Fig. 2.
	SubmitUplinkBps float64
	// NetLatency is the one-way message latency between any two nodes.
	NetLatency time.Duration

	// ---- Container image & registry ----

	// ImageLayersBytes are the task image's layer sizes (base python+numpy
	// layer, app layer). Total ≈ 106 MB, a typical python+numpy image.
	ImageLayersBytes []int64
	// RegistryBps is registry download bandwidth per pull.
	RegistryBps float64
	// ImageLoadBps is the rate at which a node unpacks/loads a transferred
	// image into its local store (docker load path used by Pegasus's
	// container universe, which ships the image as a job input file).
	ImageLoadBps float64

	// ---- Container runtime (calibrated to Fig. 1: Docker's per-task
	// overhead ≈ 0.63 s/task total vs ≈ 0.49 s/task for Knative reuse) ----

	// ContainerCreate is the runtime's container-create cost.
	ContainerCreate time.Duration
	// ContainerStart is the container start cost.
	ContainerStart time.Duration
	// ContainerStopRemove is teardown (stop + rm) cost.
	ContainerStopRemove time.Duration
	// DockerCLI is the docker-run client/daemon round-trip overhead per
	// invocation in the Fig. 1 motivation experiment.
	DockerCLI time.Duration

	// ---- Task (§V-B: 350×350 integer matrix multiply, inputs read from
	// disk, output written back) ----

	// TaskCoreSeconds is the warm-process service demand of one task
	// (python + numpy integer matmul + disk I/O). Calibrated from Fig. 1:
	// Knative per-task time ≈ 0.49 s including invocation overhead.
	TaskCoreSeconds float64
	// TaskDriftPerTask models the slight per-task slowdown both systems
	// exhibit as the Fig. 1 sweep progresses ("execution times of
	// individual tasks increased as more tasks were executed"), e.g. page
	// cache and log growth. Core-seconds added per preceding task.
	TaskDriftPerTask float64
	// TaskJitterFrac is the multiplicative noise on each task's service
	// demand (real matmul+I/O times vary run to run). It also provides the
	// phase diversity that keeps concurrent workflows from locking to the
	// negotiator cycle.
	TaskJitterFrac float64
	// MatrixBytes is the on-disk size of one 350×350 int64 matrix.
	MatrixBytes int64

	// ---- Knative (§IV-2, §V-E) ----

	// ColdStartAppInit is the in-container application initialisation time
	// (python + flask + numpy import, server bind, first readiness). The
	// dominant share of the paper's measured 1.48 s cold start.
	ColdStartAppInit time.Duration
	// ReadinessProbeInterval paces how quickly a started pod is noticed
	// ready.
	ReadinessProbeInterval time.Duration
	// QueueProxyOverhead is the per-request proxy + routing cost.
	QueueProxyOverhead time.Duration
	// PayloadCodecBps is the rate at which request/response payloads are
	// marshalled and unmarshalled (§IV-3: file data travels by value in
	// the invocation body; JSON-encoding matrices in python is slow). Each
	// payload is charged twice per direction — encode at the sender,
	// decode at the receiver. 0 disables the cost.
	PayloadCodecBps float64
	// WrapperStartup is the per-task cost of the invoker wrapper script
	// that replaces the original job in the executable workflow (python
	// interpreter + requests import).
	WrapperStartup time.Duration
	// AutoscalerTick is the KPA evaluation period.
	AutoscalerTick time.Duration
	// StableWindow is the stable-mode concurrency averaging window.
	StableWindow time.Duration
	// PanicWindow is the panic-mode averaging window.
	PanicWindow time.Duration
	// PanicThreshold: enter panic mode when desired pods computed over the
	// panic window reach this multiple of current ready pods.
	PanicThreshold float64
	// ScaleToZeroGrace holds the last pod this long after the revision
	// goes idle.
	ScaleToZeroGrace time.Duration
	// DefaultTarget is the per-pod target concurrency used by the
	// autoscaler when the service doesn't set one.
	DefaultTarget float64
	// MaxScaleUpRate bounds one autoscaler decision's scale-up to this
	// multiple of the current ready count (knative's max-scale-up-rate;
	// must exceed 1 when set). 0 = unlimited, the seed behaviour.
	MaxScaleUpRate float64
	// MaxScaleDownRate bounds one autoscaler decision's scale-down to this
	// divisor of the current ready count (knative's max-scale-down-rate;
	// must exceed 1 when set). 0 = unlimited, the seed behaviour.
	MaxScaleDownRate float64
	// ScaleDownDelay holds a scale-down until the desired count has stayed
	// low for this long (the recommendation becomes the max over the
	// trailing delay window). 0 = immediate scale-down, the seed behaviour.
	ScaleDownDelay time.Duration

	// ---- Kubernetes ----

	// SchedulerLatency is pod scheduling decision + binding cost.
	SchedulerLatency time.Duration

	// ---- Control plane cost model (internal/cplane; every knob defaults
	// to 0 = the seed's free control plane, so existing goldens are pinned
	// byte-identical) ----

	// CPMode selects the control-plane communication path: "baseline"
	// (default when empty; every message is a store-mediated apiserver
	// request) or "direct" (Kubedirect-style direct message passing between
	// scheduler/kubelet/autoscaler for placement-critical messages, with
	// asynchronous store reconciliation). Parse with ParseCPMode; unknown
	// values fail the run, never fall back to the free control plane.
	CPMode string
	// APIServerQPS caps the apiserver's request throughput: each request
	// occupies the serialized server for 1/QPS seconds, and requests
	// arriving faster than that queue FIFO. 0 = unlimited (seed).
	APIServerQPS float64
	// APIServerLatency is the per-request apiserver processing latency
	// (authn/authz, admission, (de)serialization), paid once the request
	// reaches the head of the queue. 0 = free (seed).
	APIServerLatency time.Duration
	// EtcdCommitLatency is the per-write etcd-style commit latency (raft
	// round + fsync), paid by every store write: pod bindings, deletions,
	// status updates, scale writes. 0 = free (seed).
	EtcdCommitLatency time.Duration
	// WatchLatency is the watch/informer propagation delay between a write
	// committing and the component watching that object observing it (the
	// kubelet seeing a binding, the activator seeing readiness, the
	// scheduler seeing a scale-up). 0 = instantaneous (seed).
	WatchLatency time.Duration
	// SchedSamplePercent is the kube scheduler's percentage-of-nodes-to-
	// score: stop filtering once this percentage of the cluster (never
	// fewer than sched's floor of 100) has passed the feasibility
	// filters, rotating the scan's start node between decisions so no node
	// range is permanently favoured. 0 = score every node (seed).
	SchedSamplePercent int

	// ---- HTCondor (absolute makespans in Fig. 6 are dominated by condor's
	// per-job scheduling latency: DAGMan submits each ready job, then the
	// job waits for the next negotiation cycle) ----

	// PerJobNegotiation selects the negotiation model. True (default, and
	// what the paper's absolute numbers imply): the schedd's reschedule
	// request triggers a negotiation for each job ≈NegotiationDelay after
	// submission, so per-task overheads add to the makespan. False: a
	// strict global negotiation cycle of NegotiatorCycle — an ablation
	// that quantizes sequential workflows to cycle boundaries and hides
	// per-task overhead differences.
	PerJobNegotiation bool
	// NegotiationDelay is the per-job submit-to-match latency in per-job
	// mode. Calibrated so one sequential task costs ≈25 s end to end
	// (Fig. 6: 250 s for a 10-task chain).
	NegotiationDelay time.Duration
	// NegotiatorCycle is the matchmaking interval in cycle mode. Real
	// condor defaults to 60 s.
	NegotiatorCycle time.Duration
	// NegotiatorJitterFrac randomises both models' delays so workflows do
	// not lock into pathological phase alignment.
	NegotiatorJitterFrac float64
	// ShadowSpawn is the serialized per-job dispatch cost at the schedd
	// (shadow process fork + claim activation). It is the native slope in
	// Fig. 2 (0.28 s/task) net of file-transfer time.
	ShadowSpawn time.Duration
	// JobStartOverhead is the per-job starter setup on the worker
	// (parallel across workers, not serialized).
	JobStartOverhead time.Duration
	// CondorJitterFrac is multiplicative noise on per-job shadow and
	// starter overheads.
	CondorJitterFrac float64
	// DAGManPoll is the interval at which the workflow engine notices
	// completed jobs and submits newly ready ones (condor_dagman default
	// ≈ 5 s). Only the poll execution mode quantizes releases to this
	// interval; see ExecMode.
	DAGManPoll time.Duration
	// ExecMode selects the wms engine's release path: "poll" (default when
	// empty; the DAGMan-style central loop, the seed behaviour),
	// "decentralized" (Wukong-style: a completing task directly enqueues
	// its ready successors), or "trigger" (Triggerflow-style: completions
	// publish events through the knative eventing broker and filtered
	// triggers release successors). Parse with ParseExecMode; unknown
	// values fail the run, never fall back to poll.
	ExecMode string

	// ---- Retry policies (unified fault-recovery configuration) ----

	// TaskRetry governs workflow-level task resubmission in the wms engine
	// (DAGMan/Pegasus-style retries).
	TaskRetry RetryPolicy
	// PullRetry governs container-runtime image pulls against a flaky
	// registry.
	PullRetry RetryPolicy
	// InvokeRetry governs knative invocation retries after replica
	// failures.
	InvokeRetry RetryPolicy

	// ---- Overload protection (internal/resilience wiring; every knob
	// defaults to 0 = disabled, preserving the unprotected seed behaviour) ----

	// ActivatorQueueCap bounds the knative activator's per-service waiting
	// room. Requests arriving with the room full are shed with
	// resilience.ErrQueueFull instead of buffering without bound; admitted
	// requests whose estimated queue wait exceeds their remaining deadline
	// are shed with resilience.ErrWouldExpire. 0 = unbounded (seed).
	ActivatorQueueCap int
	// InvokeDeadline is the default end-to-end deadline stamped on knative
	// requests that don't carry one. The deadline propagates with the
	// request and is enforced at admission, at queue wake-up, and at the
	// queue-proxy just before execution. 0 = no deadline.
	InvokeDeadline time.Duration
	// BreakerFailures trips a per-target circuit breaker after this many
	// consecutive failures. 0 disables breakers everywhere.
	BreakerFailures int
	// BreakerOpenFor is how long a tripped breaker fast-fails before
	// admitting half-open probes.
	BreakerOpenFor time.Duration
	// BreakerHalfOpenProbes bounds concurrent half-open probes (0 = 1).
	BreakerHalfOpenProbes int
	// RetryBudgetRatio is the token-bucket retry budget's earn rate:
	// tokens deposited per successful operation, withdrawn one per retry.
	// 0 disables the budget (unlimited retries, the seed behaviour).
	RetryBudgetRatio float64
	// RetryBudgetBurst is the budget's initial and maximum token balance.
	RetryBudgetBurst float64
	// HedgeAfter launches a speculative duplicate of a still-running task
	// once it has been in flight this long (wms engine; first completion
	// wins). 0 disables hedging.
	HedgeAfter time.Duration
	// HedgeMax caps the number of hedge copies launched per task attempt.
	HedgeMax int

	// ---- Placement (internal/sched policy selection) ----

	// KubePlacementPolicy names the kube scheduler's placement policy:
	// "least-requested" (default when empty; the seed scheduler),
	// "bin-pack", "spread", or "image-locality".
	KubePlacementPolicy string
	// CondorPlacementPolicy names the condor negotiator's placement
	// policy: "most-free-rr" (default when empty; the seed matchmaker's
	// most-free-slots with round-robin rotation) or "data-locality".
	CondorPlacementPolicy string
	// ScratchCache keeps shared-filesystem staging products cached in each
	// node's scratch space: stage-out also writes the local scratch copy,
	// and stage-in reads locally when the file is already resident. It
	// feeds the data-locality placement score. Default off — the seed
	// staging model always goes to the shared filesystem.
	ScratchCache bool

	// ---- Experiment-level ----

	// WorkflowsPerRun: 10 concurrent workflows (§V-C).
	WorkflowsPerRun int
	// TasksPerWorkflow: 10 sequential matmuls per workflow (§V-C, Fig. 3).
	TasksPerWorkflow int
	// Repetitions: seeds averaged per reported number.
	Repetitions int
}

// Default returns the calibrated parameter set matching the paper's §V
// configuration.
func Default() Params {
	return Params{
		WorkerNodes:  3,
		CoresPerNode: 8,
		MemMBPerNode: 32 * 1024,

		WorkerLinkBps:   10e9 / 8,
		SubmitUplinkBps: 1e9 / 8,
		NetLatency:      200 * time.Microsecond,

		ImageLayersBytes: []int64{88 << 20, 18 << 20}, // base + app ≈ 106 MB
		RegistryBps:      250e6,                       // 2 Gb/s effective pull rate
		ImageLoadBps:     120e6,                       // docker load unpack rate

		ContainerCreate:     90 * time.Millisecond,
		ContainerStart:      50 * time.Millisecond,
		ContainerStopRemove: 35 * time.Millisecond,
		DockerCLI:           30 * time.Millisecond,

		TaskCoreSeconds:  0.42,
		TaskDriftPerTask: 0.0004,
		TaskJitterFrac:   0.05,
		MatrixBytes:      350 * 350 * 8,

		ColdStartAppInit:       1200 * time.Millisecond,
		ReadinessProbeInterval: 50 * time.Millisecond,
		QueueProxyOverhead:     12 * time.Millisecond,
		PayloadCodecBps:        10e6,
		WrapperStartup:         200 * time.Millisecond,
		AutoscalerTick:         2 * time.Second,
		StableWindow:           60 * time.Second,
		PanicWindow:            6 * time.Second,
		PanicThreshold:         2.0,
		ScaleToZeroGrace:       30 * time.Second,
		DefaultTarget:          1,

		SchedulerLatency: 40 * time.Millisecond,

		PerJobNegotiation:    true,
		NegotiationDelay:     21500 * time.Millisecond,
		NegotiatorCycle:      24 * time.Second,
		NegotiatorJitterFrac: 0.12,
		ShadowSpawn:          270 * time.Millisecond,
		JobStartOverhead:     120 * time.Millisecond,
		CondorJitterFrac:     0.15,
		DAGManPoll:           5 * time.Second,

		TaskRetry: RetryPolicy{
			MaxAttempts: 3,
			BaseDelay:   5 * time.Second,
			MaxDelay:    2 * time.Minute,
			Multiplier:  2,
			JitterFrac:  0.1,
		},
		PullRetry: RetryPolicy{
			MaxAttempts: 3,
			BaseDelay:   500 * time.Millisecond,
			MaxDelay:    10 * time.Second,
			Multiplier:  2,
			JitterFrac:  0.1,
		},
		InvokeRetry: RetryPolicy{
			MaxAttempts: 4,
			BaseDelay:   100 * time.Millisecond,
			MaxDelay:    5 * time.Second,
			Multiplier:  2,
			JitterFrac:  0.1,
		},

		WorkflowsPerRun:  10,
		TasksPerWorkflow: 10,
		Repetitions:      5,
	}
}

// ImageBytes returns the total task image size across layers.
func (p Params) ImageBytes() int64 {
	var total int64
	for _, b := range p.ImageLayersBytes {
		total += b
	}
	return total
}

// EffectiveRequeueDelay is the scheduler penalty a failed job pays before
// its failure is reported and the job can be re-matched: the negotiation a
// real requeue waits out, one per-job negotiation (per-job mode) or one
// negotiator cycle.
func (p Params) EffectiveRequeueDelay() time.Duration {
	if p.PerJobNegotiation {
		return p.NegotiationDelay
	}
	return p.NegotiatorCycle
}

// TaskWork returns the service demand, in core-seconds, of the idx-th task
// executed on a node since the start of the run, applying the drift term.
func (p Params) TaskWork(idx int) float64 {
	return p.TaskCoreSeconds + float64(idx)*p.TaskDriftPerTask
}
