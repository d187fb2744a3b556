// Package knative models Knative Serving on top of the kube substrate:
// services with revisions of pods, a KPA-style concurrency autoscaler with
// stable and panic windows, an activator that buffers requests while scaling
// from zero, and a per-pod queue-proxy enforcing container concurrency.
//
// The annotations the paper manipulates map directly onto ServiceSpec
// fields: "autoscaling.knative.dev/min-scale" → MinScale (pre-provision
// containers on k workers and keep them), "autoscaling.knative.dev/
// initial-scale" → InitialScale (0 defers the image download and container
// creation to the first invocation, the Pegasus-like behaviour of §IV-2),
// and containerConcurrency → ContainerConcurrency (1 isolates concurrent
// requests from each other; higher values let tasks share a warm container).
package knative

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/kpa"
	"repro/internal/kube"
	"repro/internal/resilience"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// RoutePolicy selects how the router picks among ready replicas.
type RoutePolicy int

const (
	// RouteLeastRequests picks the replica with the fewest in-flight
	// requests (knative's default behaviour).
	RouteLeastRequests RoutePolicy = iota
	// RouteLeastNodeLoad picks the replica whose node currently has the
	// least CPU load — the paper's §IX-D "task redirection" extension:
	// steer work away from overloaded nodes at invocation time.
	RouteLeastNodeLoad
)

// routeNames names each RoutePolicy in traces; Deploy rejects a Routing
// outside it.
var routeNames = [...]string{RouteLeastRequests: "least-requests", RouteLeastNodeLoad: "least-node-load"}

func (r RoutePolicy) String() string {
	if r >= 0 && int(r) < len(routeNames) {
		return routeNames[r]
	}
	return fmt.Sprintf("RoutePolicy(%d)", int(r))
}

// ServiceSpec declares a serverless function service.
type ServiceSpec struct {
	// Name is the service (and route) name.
	Name string
	// Image is the function's container image.
	Image string
	// ContainerConcurrency is the hard limit of in-flight requests one pod
	// serves at a time (0 = effectively unlimited).
	ContainerConcurrency int
	// Target is the autoscaler's desired average concurrency per pod
	// (0 = platform default).
	Target float64
	// MinScale keeps at least this many replicas at all times
	// ("autoscaling.knative.dev/min-scale").
	MinScale int
	// InitialScale is the replica count provisioned at deployment time
	// ("autoscaling.knative.dev/initial-scale"); 0 defers all container
	// work to the first invocation.
	InitialScale int
	// MaxScale bounds the replica count (0 = unbounded).
	MaxScale int
	// CPURequest, MemMB, and CapCores size each pod.
	CPURequest float64
	MemMB      int
	CapCores   float64
	// AppInit is the in-container startup time before readiness.
	AppInit time.Duration
	// Routing selects the replica-picking policy (default: least requests).
	Routing RoutePolicy
	// ScalingMetric selects the autoscaler's driving signal — concurrency
	// (default) or requests/s, the "autoscaling.knative.dev/metric"
	// annotation. Target is interpreted in the chosen metric's unit.
	ScalingMetric kpa.Metric
}

// Request is one function invocation. File inputs travel by value in the
// request body and results return in the response (§IV-3), so payload sizes
// are part of the request. Alternatively the StageIn/StageOut hooks let an
// integration fetch data on the serving node itself (e.g. from a shared
// filesystem or object store, the §V-E alternative strategy).
type Request struct {
	// From is the node issuing the HTTP call.
	From string
	// PayloadIn is the request body size (the task's input files when
	// passing by value; a small reference manifest otherwise).
	PayloadIn int64
	// PayloadOut is the response body size.
	PayloadOut int64
	// Work is the task's service demand in core-seconds.
	Work float64
	// StageIn, if set, runs on the serving replica's node before the task
	// body, holding the request's slot — e.g. reading inputs from a shared
	// filesystem. It is a continuation: the call's chain starts it where
	// the request reaches it, with the invocation's span as parent, and
	// the hook calls done exactly once with its outcome, where the chain
	// continues. A failure ends the attempt without a retry.
	StageIn func(parent *trace.Span, node string, done func(error))
	// StageOut, if set, runs on the serving node after the task body, as
	// StageIn does — e.g. writing outputs back to the shared filesystem.
	StageOut func(parent *trace.Span, node string, done func(error))
	// Deadline is the request's absolute virtual-time deadline. It
	// propagates with the request and is enforced at activator admission,
	// at every queue wake-up, and at the queue-proxy just before
	// execution; a request past it is dropped with ErrDeadlineExceeded
	// rather than allowed to consume capacity producing an answer nobody
	// is waiting for. 0 means no deadline; when Params.InvokeDeadline is
	// set, Invoke stamps absent deadlines on entry.
	Deadline time.Duration
	// Parent is the span the invocation's spans nest under; nil makes
	// them roots.
	Parent *trace.Span
}

// Response reports how an invocation was served.
type Response struct {
	// PodNode is the worker that executed the function.
	PodNode string
	// Cold reports whether the request waited on a scale-from-zero.
	Cold bool
	// Queued is how long the request waited for pod capacity.
	Queued time.Duration
}

// podHandle is the service's view of one replica. Its lifecycle is the
// kube pod's own: a replica serves once its pod is Ready, and the service
// drops the handle in the same step that deletes the pod.
type podHandle struct {
	pod      *kube.Pod
	free     int // request slots left under ContainerConcurrency
	inFlight int
}

// Service is a deployed serverless function.
type Service struct {
	kn    *Knative
	spec  ServiceSpec
	ascfg kpa.Config // validated autoscaler parameterization

	pods     []*podHandle
	nextPod  int
	rr       int // round-robin offset for tie-breaking
	inFlight int

	// qHead and qTail link the requests waiting for a replica or a slot in
	// the order they joined: each pending wake's, then those queued since.
	qHead, qTail *call
	drainStep    func() // s.drain, bound once
	stopped      bool

	// The autoscaler's state (see autoscale), and its step, bound once.
	agg          *kpa.MetricAggregator
	as           *kpa.Autoscaler
	lastRequests int
	desired      int
	scaleStage   scaleStage
	step         func()

	// Overload protection (nil members = disabled, the seed behaviour).
	breaker   *resilience.Breaker
	admission *resilience.Admission
	ewma      time.Duration // EWMA of observed per-slot service time

	// Stats for experiments.
	ColdStarts    int
	Requests      int
	DeadlineDrops int
}

// OverloadStats are the per-service overload-protection counters.
type OverloadStats struct {
	// ShedFull / ShedWait are activator sheds: waiting room full, and
	// estimated wait exceeding the request's remaining deadline.
	ShedFull, ShedWait int
	// DeadlineDrops counts requests dropped past their deadline after
	// admission (queue wake-up or queue-proxy checks).
	DeadlineDrops int
	// BreakerTrips / BreakerFastFails are circuit-breaker transitions to
	// open and requests denied without reaching the service.
	BreakerTrips, BreakerFastFails int
}

// Overload returns the service's protection counters.
func (s *Service) Overload() OverloadStats {
	full, wait := s.admission.Shed()
	return OverloadStats{
		ShedFull:         full,
		ShedWait:         wait,
		DeadlineDrops:    s.DeadlineDrops,
		BreakerTrips:     s.breaker.Trips(),
		BreakerFastFails: s.breaker.FastFails(),
	}
}

// Knative is the serving control plane.
type Knative struct {
	env *sim.Env
	cl  *cluster.Cluster
	k   *kube.Kube
	prm config.Params

	services []*Service
	byName   map[string]*Service
	brokers  []*Broker
	calls    []*call // recycled invocations (see Service.InvokeAsync)

	// budget is the serving layer's shared retry budget: invoke retries
	// across every service draw from one bucket, so a single failing
	// service cannot amplify into a platform-wide retry storm. Nil when
	// Params.RetryBudgetRatio is 0 (unlimited retries, seed behaviour).
	budget *resilience.RetryBudget
}

// New builds a serving layer over the given kube control plane (which must
// be started).
func New(env *sim.Env, cl *cluster.Cluster, k *kube.Kube, prm config.Params) *Knative {
	kn := &Knative{env: env, cl: cl, k: k, prm: prm, byName: make(map[string]*Service)}
	if prm.RetryBudgetRatio > 0 {
		kn.budget = resilience.NewRetryBudget(prm.RetryBudgetRatio, prm.RetryBudgetBurst)
	}
	return kn
}

// Deploy registers a service and blocks until its initial replicas (if any)
// are ready — task registration happens before workflow execution (§IV-1).
// The service's autoscaler parameterization (from Params plus the spec) is
// validated here, so a misconfiguration — e.g. a panic window wider than
// the stable window, which the pre-kpa loop silently truncated — fails the
// deployment instead of silently scaling wrong.
func (kn *Knative) Deploy(p *sim.Proc, spec ServiceSpec) (*Service, error) {
	if _, dup := kn.byName[spec.Name]; dup {
		return nil, fmt.Errorf("knative: service %q already exists", spec.Name)
	}
	if spec.Target <= 0 {
		spec.Target = kn.prm.DefaultTarget
	}
	ascfg := kn.kpaConfig(spec)
	if err := ascfg.Validate(); err != nil {
		return nil, fmt.Errorf("knative: deploy %s: %w", spec.Name, err)
	}
	if r := spec.Routing; r < 0 || int(r) >= len(routeNames) {
		return nil, fmt.Errorf("knative: deploy %s: unknown Routing %d (valid: %d %s, %d %s)", spec.Name, int(r),
			RouteLeastRequests, RouteLeastRequests, RouteLeastNodeLoad, RouteLeastNodeLoad)
	}
	svc := &Service{kn: kn, spec: spec, ascfg: ascfg}
	svc.drainStep = svc.drain
	svc.breaker = resilience.NewBreaker(resilience.BreakerPolicy{
		Failures:       kn.prm.BreakerFailures,
		OpenFor:        kn.prm.BreakerOpenFor,
		HalfOpenProbes: kn.prm.BreakerHalfOpenProbes,
	})
	svc.admission = resilience.NewAdmission(kn.prm.ActivatorQueueCap)
	kn.services = append(kn.services, svc)
	kn.byName[spec.Name] = svc

	initial := ascfg.Initial()
	for i := 0; i < initial; i++ {
		svc.addPod()
	}
	// Registration is synchronous: wait for the initial replicas.
	for _, h := range svc.pods {
		if err := kn.k.WaitReady(p, h.pod); err != nil {
			return nil, fmt.Errorf("knative: deploy %s: %w", spec.Name, err)
		}
	}
	svc.agg = kpa.NewMetricAggregator(ascfg)
	svc.as = kpa.MustNew(ascfg)
	svc.step = svc.autoscale
	kn.env.Defer(svc.step)
	return svc, nil
}

// Service returns a deployed service by name.
func (kn *Knative) Service(name string) (*Service, bool) {
	svc, ok := kn.byName[name]
	return svc, ok
}

// AttachFaults connects the serving layer to the fault injector: a pod kill
// (KindPodKill, target = service name, or empty for every service) evicts
// one ready replica, which the autoscaler later replaces. In-flight requests
// on the killed replica fail and are retried by Invoke's policy.
func (kn *Knative) AttachFaults(in *faults.Injector) {
	in.OnFault(faults.KindPodKill, func(f faults.Fault, begin bool) {
		if !begin {
			return
		}
		for _, svc := range kn.services {
			if f.Target != "" && svc.spec.Name != f.Target {
				continue
			}
			svc.killOnePod()
		}
	})
}

// killOnePod evicts the first ready replica (deterministic: pods keep
// creation order), modelling an external eviction or OOM kill.
func (s *Service) killOnePod() {
	for _, h := range s.pods {
		if h.pod.Ready() {
			s.kn.k.DeletePod(h.pod.Spec.Name)
			s.removeHandle(h)
			s.wake()
			return
		}
	}
}

// Shutdown stops every broker and every service's autoscaler, deletes all
// pods, and lets the simulation drain.
func (kn *Knative) Shutdown() {
	for _, b := range kn.brokers {
		b.shutdown()
	}
	for _, svc := range kn.services {
		svc.stopped = true
		for _, h := range svc.pods {
			kn.k.DeletePod(h.pod.Spec.Name)
		}
		svc.pods = nil
		svc.wake()
	}
}

// ReadyPods counts serving replicas. Readiness is the kube pod's own, so
// it is visible the moment the kubelet reports it, independent of watcher
// scheduling.
func (s *Service) ReadyPods() int {
	n := 0
	for _, h := range s.pods {
		if h.pod.Ready() {
			n++
		}
	}
	return n
}

// capacity reports whether a replica is ready and whether a ready one has
// a free slot, the feasibility pickReplica routes by.
func (s *Service) capacity() (ready, free bool) {
	for _, h := range s.pods {
		if h.pod.Ready() {
			ready = true
			if h.free > 0 {
				return true, true
			}
		}
	}
	return ready, false
}

// StartingPods counts replicas still coming up.
func (s *Service) StartingPods() int { return len(s.pods) - s.ReadyPods() }

// InFlight returns current concurrency (served + queued requests).
func (s *Service) InFlight() int { return s.inFlight }

// addPod creates one replica and watches it to readiness.
func (s *Service) addPod() *podHandle {
	cc := s.spec.ContainerConcurrency
	if cc <= 0 {
		cc = 1 << 20
	}
	name := fmt.Sprintf("%s-%05d", s.spec.Name, s.nextPod)
	s.nextPod++
	h := &podHandle{free: cc}
	pod, err := s.kn.k.CreatePod(kube.PodSpec{
		Name:       name,
		Image:      s.spec.Image,
		CPURequest: s.spec.CPURequest,
		MemMB:      s.spec.MemMB,
		CapCores:   s.spec.CapCores,
		AppInit:    s.spec.AppInit,
	})
	if err != nil {
		panic("knative: " + err.Error())
	}
	h.pod = pod
	s.pods = append(s.pods, h)
	s.kn.k.OnReady(pod, func(err error) {
		// Ready, or failed while still counted: let activator waiters
		// re-examine. A replica the service already dropped changes
		// nothing a waiter can see.
		if err == nil || s.removeHandle(h) {
			s.wake()
		}
	})
	return h
}

// removeHandle drops a replica from the service and reports whether it was
// still there.
func (s *Service) removeHandle(h *podHandle) bool {
	i := slices.Index(s.pods, h)
	if i >= 0 {
		s.pods = slices.Delete(s.pods, i, i+1)
	}
	return i >= 0
}

// estimateWait predicts the queue wait a newly arriving request faces: the
// requests already waiting ahead of it each hold a serving slot for about
// one EWMA service time, spread across the service's slots. Zero until the
// first completion seeds the EWMA (admit optimistically while cold).
func (s *Service) estimateWait() time.Duration {
	if s.admission == nil || s.ewma <= 0 {
		return 0
	}
	slots := s.servingSlots()
	return time.Duration(float64(s.admission.Waiting()) / float64(slots) * float64(s.ewma))
}

// servingSlots is the service's current request parallelism: ready pods ×
// container concurrency, falling back to starting pods during a cold start
// so the estimate doesn't divide by zero.
func (s *Service) servingSlots() int {
	cc := s.spec.ContainerConcurrency
	if cc <= 0 {
		return 1 << 20 // effectively unlimited: queue waits are ≈ 0
	}
	pods := s.ReadyPods()
	if pods == 0 {
		pods = max(len(s.pods), 1) // every replica is starting
	}
	return pods * cc
}

// observeSlotTime folds one completed request's slot-holding time (payload
// movement + proxy + execution) into the EWMA behind estimateWait.
func (s *Service) observeSlotTime(d time.Duration) {
	if s.ewma == 0 {
		s.ewma = d
		return
	}
	s.ewma = (3*s.ewma + d) / 4
}

// codecTime returns the (un)marshalling time of a payload.
func (kn *Knative) codecTime(bytes int64) time.Duration {
	if kn.prm.PayloadCodecBps <= 0 || bytes <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / kn.prm.PayloadCodecBps * float64(time.Second))
}

// pickAvailable chooses a ready replica with free concurrency capacity
// (pickReplica) and claims one request slot on it, recording the decision
// under parent. It returns nil when every ready replica is saturated.
func (s *Service) pickAvailable(parent *trace.Span) *podHandle {
	best, feasible, _ := s.pickReplica()
	if best < 0 {
		return nil
	}
	tr := trace.FromEnv(s.kn.env)
	var dec sched.Decision
	if tr != nil {
		dec = s.decision(best, feasible) // before the claim takes a slot
	}
	h := s.pods[best]
	h.free--
	sched.Record(tr, parent, "knative", s.spec.Routing.String(), s.spec.Name, dec)
	return h
}

// pickReplica routes with one sched.Scan over the service's replicas, each
// evaluated by evalReplica. It returns the winner's index in s.pods (-1 when
// every ready replica is saturated) and the scan's feasible and visited
// counts. The rotating rr offset breaks ties round-robin, as the knative
// ingress balances equal backends.
func (s *Service) pickReplica() (best, feasible, visited int) {
	s.rr++
	return sched.Scan(len(s.pods), s.rr, len(s.pods), s.evalReplica)
}

// evalReplica is the router's evaluation of replica i, fused into one pass:
// the ready and free-slot checks, then the route's total score, lowest
// load wins. Totals are spelled 0 − … by the shared signed-zero rule (see
// sched.Decision): an idle replica totals +0 while its term is −0.
func (s *Service) evalReplica(i int) (float64, bool) {
	h := s.pods[i]
	if !h.pod.Ready() || h.free <= 0 {
		return 0, false
	}
	return 0 - s.load(h), true
}

// load is the quantity the service's route minimises on replica h: its
// in-flight requests, or under least-node-load (the §IX-D redirect away
// from busy nodes) its node's CPU queue length first, with the replica's
// in-flight requests as tie-break.
func (s *Service) load(h *podHandle) float64 {
	if s.spec.Routing == RouteLeastNodeLoad {
		return float64(h.pod.Node().CPU.Load())*1e6 + float64(h.inFlight)
	}
	return float64(h.inFlight)
}

// decision is the traced form of routing to replica best: its node, its
// total, and the route's raw term. It is built only with a tracer
// attached, so an untraced pick allocates nothing.
func (s *Service) decision(best, feasible int) sched.Decision {
	h := s.pods[best]
	total, _ := s.evalReplica(best)
	per := []sched.PluginScore{{Plugin: s.spec.Routing.String(), Value: -s.load(h)}}
	return sched.Decision{Node: h.pod.NodeName, Score: total, PerPlugin: per, Feasible: feasible}
}

// purgeDead removes handles whose pods were killed out from under the
// service (node drains, evictions) so reconciliation sees the true replica
// count and replaces them.
func (s *Service) purgeDead() {
	s.pods = slices.DeleteFunc(s.pods, func(h *podHandle) bool {
		ph := h.pod.Phase()
		return ph == kube.PhaseDead || ph == kube.PhaseFailed
	})
}

// scaleTo reconciles the replica count towards desired: grows immediately,
// shrinks by removing idle replicas only (busy ones drain first).
func (s *Service) scaleTo(desired int) {
	desired = s.ascfg.ClampBounds(desired)
	for len(s.pods) < desired {
		s.addPod()
	}
	for len(s.pods) > desired {
		h := s.idleVictim()
		if h == nil {
			return // nothing idle; retry next tick
		}
		s.kn.k.DeletePod(h.pod.Spec.Name)
		s.removeHandle(h)
	}
}

// idleVictim returns the newest ready replica with no in-flight requests,
// or else the newest replica still starting, to cancel.
func (s *Service) idleVictim() *podHandle {
	var starting *podHandle
	for i := len(s.pods) - 1; i >= 0; i-- {
		switch h := s.pods[i]; {
		case h.pod.Ready() && h.inFlight == 0:
			return h
		case !h.pod.Ready() && starting == nil:
			starting = h
		}
	}
	return starting
}

// kpaConfig maps the platform parameters plus a service's spec onto the
// autoscaler configuration. The zero values of the optional Params knobs
// (rate clamps, scale-down delay) leave the seed parameterization
// untouched.
func (kn *Knative) kpaConfig(spec ServiceSpec) kpa.Config {
	prm := kn.prm
	return kpa.Config{
		TargetValue:      spec.Target,
		ScalingMetric:    spec.ScalingMetric,
		Tick:             prm.AutoscalerTick,
		StableWindow:     prm.StableWindow,
		PanicWindow:      prm.PanicWindow,
		PanicThreshold:   prm.PanicThreshold,
		MaxScaleUpRate:   prm.MaxScaleUpRate,
		MaxScaleDownRate: prm.MaxScaleDownRate,
		ScaleDownDelay:   prm.ScaleDownDelay,
		ScaleToZeroGrace: prm.ScaleToZeroGrace,
		MinScale:         spec.MinScale,
		MaxScale:         spec.MaxScale,
		InitialScale:     spec.InitialScale,
	}
}

// scaleStage names the autoscaler step that runs next.
type scaleStage uint8

const (
	scaleStart  scaleStage = iota // arm the first tick
	scaleScrape                   // the tick elapsed: read the metrics
	scaleDecide                   // the metric read elapsed: recommend
	scaleWrite                    // the scale write elapsed: reconcile
)

// autoscale is the service's one reconcile loop: every tick it records the
// instantaneous concurrency and the request rate over the elapsed tick
// into the sliding windows, asks the kpa autoscaler for a recommendation,
// and reconciles the replica count. All algorithmic state (windows, panic
// exit, idle clock, delay window) lives in internal/kpa. Each wait arms
// s.step, which runs in the event callback when the wait ends.
func (s *Service) autoscale() {
	if s.stopped {
		return
	}
	switch s.scaleStage {
	case scaleScrape:
		// The metric scrape rides the control plane (an apiserver read in
		// the store-mediated baseline, a direct connection in direct mode);
		// zero delay = the seed's free metrics pipeline.
		if d := s.kn.k.ControlPlane().MetricReadDelay(); d > 0 {
			s.scaleStage = scaleDecide
			s.kn.env.After(d, s.step)
			return
		}
		fallthrough
	case scaleDecide:
		s.purgeDead()
		now := s.kn.env.Now()
		rps := float64(s.Requests-s.lastRequests) / s.ascfg.Tick.Seconds()
		s.lastRequests = s.Requests
		s.agg.Record(now, float64(s.inFlight), rps)
		rec := s.as.Scale(s.agg.Snapshot(now, s.ReadyPods()), now)
		if rec.Hold {
			break
		}
		// The scale decision is a write the scheduler must observe before
		// the replica change takes effect.
		s.desired = rec.Desired
		if d := s.kn.k.ControlPlane().ScaleWriteDelay(); d > 0 {
			s.scaleStage = scaleWrite
			s.kn.env.After(d, s.step)
			return
		}
		fallthrough
	case scaleWrite:
		s.scaleTo(s.desired)
	}
	s.scaleStage = scaleScrape
	s.kn.env.Delay(s.ascfg.Tick, s.step)
}
