// Package faults is the cross-layer fault-injection framework: a
// deterministic, seeded schedule of infrastructure faults delivered on the
// simulation's virtual clock through hook points each substrate registers.
//
// Two delivery mechanisms cover every fault class in the reproduction:
//
//   - scheduled faults: the injector fires a registered Hook at the fault's
//     start time and — for window faults with a Duration — again at its end.
//     Node crash/reboot (condor startds offline, kube drain/uncordon),
//     network latency spikes and partitions (simnet), registry bandwidth
//     brownouts, pod kills (knative), and object-store outages (storage)
//     all deliver this way;
//   - probabilistic faults: a window activates a per-operation failure rate
//     that a substrate polls with Roll at each vulnerable operation —
//     transient condor job failures, registry pull errors, container
//     create/start failures (crt), and pod cold-start failures (kube).
//
// All randomness is drawn from a generator forked from the environment's
// seeded RNG, and every delivered or fired fault is appended to a textual
// trace, so a run with the same seed and schedule reproduces a byte-identical
// fault history (the chaos experiment's determinism guarantee).
//
// Modelling note: a node crash does not preempt work already inside the
// fluid CPU/network servers — the doomed job runs to its next observable
// completion point and its results are then discarded (the slot is gone, the
// output transfer is skipped, the job reports failure). The charged time
// slightly overstates a real crash's resource use but preserves the
// recovery-path behaviour the framework exists to exercise.
package faults

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/sim"
)

// Kind identifies a fault class. Each kind is delivered to the hooks
// registered for it; probabilistic kinds additionally maintain an active
// failure rate polled via Roll.
type Kind string

// Fault kinds, one per substrate failure mode.
const (
	// KindNodeCrash takes a worker node down at At and (when Duration > 0)
	// reboots it at At+Duration. Target is the node name. Both the condor
	// pool (startd offline, running jobs evicted) and the kube control
	// plane (drain, then uncordon) register hooks for it.
	KindNodeCrash Kind = "node-crash"
	// KindNetLatency multiplies the fabric's one-way latency by Rate for
	// the window.
	KindNetLatency Kind = "net-latency"
	// KindNetPartition severs connectivity between the two nodes named in
	// Target as "a|b" for the window; transfers between them stall until
	// the partition heals.
	KindNetPartition Kind = "net-partition"
	// KindRegistryError makes image-layer pulls fail transiently with
	// probability Rate for the window.
	KindRegistryError Kind = "registry-error"
	// KindRegistryBrownout divides the registry's egress bandwidth by Rate
	// for the window (a registry brownout / throttling incident).
	KindRegistryBrownout Kind = "registry-brownout"
	// KindCreateFail makes container creates fail with probability Rate.
	KindCreateFail Kind = "crt-create-fail"
	// KindStartFail makes container starts fail with probability Rate.
	KindStartFail Kind = "crt-start-fail"
	// KindPodKill deletes one ready pod of the service named in Target at
	// At (a targeted eviction).
	KindPodKill Kind = "pod-kill"
	// KindColdStartFail makes pod bring-up fail with probability Rate
	// after the container has started (readiness never reached).
	KindColdStartFail Kind = "coldstart-fail"
	// KindJobFailure injects transient condor job failures (starter crash,
	// eviction) with probability Rate.
	KindJobFailure Kind = "job-failure"
	// KindStoreOutage makes the object store reject every request for the
	// window.
	KindStoreOutage Kind = "store-outage"
)

// Fault is one scheduled fault instance.
type Fault struct {
	// Kind selects the fault class.
	Kind Kind
	// At is the virtual time the fault begins.
	At time.Duration
	// Duration, when positive, makes this a window fault that ends (hook
	// fired with begin=false, rate deactivated) at At+Duration. Zero means
	// a point fault / permanent condition.
	Duration time.Duration
	// Target is kind-specific: a node name, a service name, a "a|b" node
	// pair, or empty for "all targets".
	Target string
	// Rate is kind-specific magnitude: a failure probability for
	// probabilistic kinds, a multiplier/divisor for latency and bandwidth
	// faults.
	Rate float64
}

// Hook delivers a fault to a substrate. It is called in scheduler context
// (it must not block on simulation primitives) with begin=true at the
// fault's start and, for window faults, begin=false at its end.
type Hook func(f Fault, begin bool)

// Injector owns the fault schedule, the active probabilistic rates, and the
// trace. Create one per simulation with NewInjector, let each substrate
// attach its hooks, then Schedule faults before or during the run.
type Injector struct {
	env   *sim.Env
	rng   *sim.RNG
	hooks map[Kind][]Hook
	rates map[Kind]map[string]float64
	trace strings.Builder
	fired int
}

// NewInjector returns an injector for env, with its own RNG stream forked
// from the environment's seeded generator.
func NewInjector(env *sim.Env) *Injector {
	return &Injector{
		env:   env,
		rng:   env.Rand().Fork(),
		hooks: make(map[Kind][]Hook),
		rates: make(map[Kind]map[string]float64),
	}
}

// OnFault registers a delivery hook for a fault kind. Multiple hooks may
// register for the same kind (a node crash is delivered to both condor and
// kube); they fire in registration order.
func (in *Injector) OnFault(kind Kind, h Hook) {
	in.hooks[kind] = append(in.hooks[kind], h)
}

// Schedule adds a fault to the timetable. It may be called before the
// simulation starts or from inside it; delivery happens on the virtual
// clock. Overlapping windows of the same kind and target are not supported
// (the first end clears the shared rate).
func (in *Injector) Schedule(f Fault) {
	in.env.At(f.At, func() { in.deliver(f, true) })
	if f.Duration > 0 {
		in.env.At(f.At+f.Duration, func() { in.deliver(f, false) })
	}
}

// deliver records the transition, maintains the active rate, and fires the
// kind's hooks.
func (in *Injector) deliver(f Fault, begin bool) {
	phase := "begin"
	if !begin {
		phase = "end"
	}
	in.record(f.Kind, f.Target, "%s rate=%g", phase, f.Rate)
	if f.Rate > 0 {
		if begin {
			in.setRate(f.Kind, f.Target, f.Rate)
		} else {
			in.setRate(f.Kind, f.Target, 0)
		}
	}
	for _, h := range in.hooks[f.Kind] {
		h(f, begin)
	}
}

// setRate sets the active failure rate of a kind at a target; target ""
// applies to all targets of the kind, and p <= 0 clears the rate.
func (in *Injector) setRate(kind Kind, target string, p float64) {
	m := in.rates[kind]
	if m == nil {
		m = make(map[string]float64)
		in.rates[kind] = m
	}
	if p <= 0 {
		delete(m, target)
		return
	}
	m[target] = p
}

// rate returns the active failure probability for a kind at a target: the
// larger of the target-specific and the all-targets ("") rate.
func (in *Injector) rate(kind Kind, target string) float64 {
	m := in.rates[kind]
	if m == nil {
		return 0
	}
	p := m[""]
	if tp := m[target]; tp > p {
		p = tp
	}
	return p
}

// Roll draws a failure decision for one vulnerable operation of the given
// kind at the given target. It returns true — and records the fired fault in
// the trace — with the currently active probability; it draws no randomness
// when no rate is active, so runs without faults consume no injector
// entropy.
func (in *Injector) Roll(kind Kind, target string) bool {
	p := in.rate(kind, target)
	if p <= 0 {
		return false
	}
	if in.rng.Float64() >= p {
		return false
	}
	in.record(kind, target, "fired p=%g", p)
	return true
}

// record appends one trace line stamped with the current virtual time.
func (in *Injector) record(kind Kind, target string, format string, args ...any) {
	in.fired++
	if target == "" {
		target = "*"
	}
	fmt.Fprintf(&in.trace, "%12.6fs %-18s %-16s %s\n",
		in.env.Now().Seconds(), string(kind), target, fmt.Sprintf(format, args...))
}

// Trace returns the textual fault history so far. Identical seeds and
// schedules produce byte-identical traces.
func (in *Injector) Trace() string { return in.trace.String() }

// Events returns how many trace records have been emitted (window
// transitions plus fired probabilistic faults).
func (in *Injector) Events() int { return in.fired }

// transientError marks a fault-injected failure that a retry can reasonably
// hope to outlast, distinguishing it from permanent errors (unknown image,
// missing bucket) that retrying cannot fix.
type transientError struct{ msg string }

func (e *transientError) Error() string { return e.msg }

// Transientf builds a transient (retryable) injected-fault error.
func Transientf(format string, args ...any) error {
	return &transientError{msg: fmt.Sprintf(format, args...)}
}

// IsTransient reports whether err is (or wraps) a transient injected fault.
// Retry loops use it to avoid burning attempts on permanent errors.
func IsTransient(err error) bool {
	var te *transientError
	return errors.As(err, &te)
}
