// Package cplane is the calibrated control-plane cost model of the testbed.
//
// The seed control plane was free: the scheduler slept one SchedulerLatency
// and bound in-process, so cluster size cost nothing and placement-critical
// paths had nothing to optimize. This package models where a real cluster
// manager spends its time — the component-communication overheads that
// "Understanding Open Source Serverless Platforms" measures dominating
// serverless latency at scale — and offers the Kubedirect-style escape
// hatch that bypasses them for placement-critical messages.
//
// The store-mediated baseline (config.CPStore) routes every control-plane
// message through three costs:
//
//   - an apiserver request queue with a throughput cap: the server is a
//     serialized resource that each request occupies for 1/APIServerQPS
//     seconds, plus APIServerLatency of per-request processing; requests
//     arriving faster than the cap wait FIFO;
//   - a per-write etcd-style commit latency (EtcdCommitLatency): raft
//     round plus fsync, paid by bindings, deletions, status updates, and
//     scale writes;
//   - a watch/informer propagation delay (WatchLatency) between a write
//     committing and the watching component observing it — the kubelet
//     seeing a binding, the activator seeing readiness.
//
// The direct fast path (config.CPDirect) passes placement-critical
// messages straight between stable components — scheduler → kubelet,
// kubelet → watchers, autoscaler ↔ metrics — for the network's one-way
// latency, and reconciles the store asynchronously off the critical path
// (Kubedirect's "lightweight opportunistic state management"); the Plane
// counts those reconciliation writes without blocking anyone on them.
//
// Determinism: the queue is a virtual-time accumulator (busyUntil), not a
// server process — each request's wait is computed O(1) at issue time from
// the deterministic call order, so same-seed runs replay identically and
// zero-valued constants reproduce the seed's free control plane exactly
// (every delay method returns 0 and mutates nothing observable).
package cplane

import (
	"time"

	"repro/internal/config"
	"repro/internal/sim"
)

// Plane is one cluster's control-plane cost model. It is shared by the
// kube scheduler, the kubelets, and the knative autoscalers, so their
// traffic contends on the same apiserver queue.
type Plane struct {
	env    *sim.Env
	mode   config.CPMode
	svc    time.Duration // serialized apiserver occupancy per request (1/QPS)
	base   time.Duration // per-request apiserver processing latency
	commit time.Duration // per-write etcd-style commit latency
	watch  time.Duration // watch/informer propagation delay
	netLat time.Duration // direct-path one-way message latency

	busyUntil time.Duration // virtual time the serialized apiserver frees up

	stats Stats
}

// Stats are the plane's observability counters, reported by the scale
// experiment alongside placement latency.
type Stats struct {
	// Reads and Writes count store-mediated apiserver requests.
	Reads, Writes int
	// AsyncWrites counts direct-mode background reconciliation writes
	// (state still reaches the store, but off the critical path).
	AsyncWrites int
	// DirectSends counts direct-mode component-to-component messages.
	DirectSends int
	// QueueWait accumulates time requests spent waiting for apiserver
	// capacity; MaxQueueWait is the worst single wait.
	QueueWait    time.Duration
	MaxQueueWait time.Duration
}

// New builds the plane described by prm. It panics on an unparseable
// CPMode — cmd/repro validates the knob up front, so reaching here with a
// bad value is a programming error, and it must never silently degrade to
// the free control plane.
func New(env *sim.Env, prm config.Params) *Plane {
	mode, err := config.ParseCPMode(prm.CPMode)
	if err != nil {
		panic("cplane: " + err.Error())
	}
	cp := &Plane{
		env:    env,
		mode:   mode,
		base:   prm.APIServerLatency,
		commit: prm.EtcdCommitLatency,
		watch:  prm.WatchLatency,
		netLat: prm.NetLatency,
	}
	if prm.APIServerQPS > 0 {
		cp.svc = time.Duration(float64(time.Second) / prm.APIServerQPS)
	}
	return cp
}

// active reports whether any cost constant is nonzero. Inactive planes are
// the seed's free control plane: every delay method returns 0, callers take
// their original inline paths, and goldens stay byte-identical.
func (cp *Plane) active() bool {
	return cp.svc > 0 || cp.base > 0 || cp.commit > 0 || cp.watch > 0
}

// Stats returns a copy of the plane's counters.
func (cp *Plane) Stats() Stats { return cp.stats }

// store charges one apiserver request issued now: FIFO queue wait for the
// serialized server, occupancy, processing latency, and — for writes — the
// store commit. It returns the request's total latency.
func (cp *Plane) store(write bool) time.Duration {
	now := cp.env.Now()
	start := cp.busyUntil
	if start < now {
		start = now
	}
	wait := start - now
	cp.busyUntil = start + cp.svc
	cp.stats.QueueWait += wait
	if wait > cp.stats.MaxQueueWait {
		cp.stats.MaxQueueWait = wait
	}
	d := wait + cp.svc + cp.base
	if write {
		cp.stats.Writes++
		d += cp.commit
	} else {
		cp.stats.Reads++
	}
	return d
}

// direct charges one direct component-to-component message and books the
// background reconciliation write when the message mutates state.
func (cp *Plane) direct(reconcile bool) time.Duration {
	cp.stats.DirectSends++
	if reconcile {
		cp.stats.AsyncWrites++
	}
	return cp.netLat
}

// BindDelay is the scheduler-decision → kubelet-sees-the-binding latency.
// Baseline: binding write (queue + processing + commit) plus the kubelet's
// watch propagation. Direct: one direct message to the kubelet, store
// reconciled asynchronously.
func (cp *Plane) BindDelay() time.Duration {
	if !cp.active() {
		return 0
	}
	if cp.mode == config.CPDirect {
		return cp.direct(true)
	}
	return cp.store(true) + cp.watch
}

// DeleteDelay is the deletion-write → owning-kubelet latency, with the same
// structure as BindDelay. Deletion is not placement-critical, but it shares
// the apiserver queue, so churn storms load the same server bindings use.
func (cp *Plane) DeleteDelay() time.Duration {
	if !cp.active() {
		return 0
	}
	if cp.mode == config.CPDirect {
		return cp.direct(true)
	}
	return cp.store(true) + cp.watch
}

// StatusDelay is the kubelet-posts-readiness → watchers-observe-it latency
// (the activator and service watchers learn a pod is ready one status write
// plus one watch propagation after the probe passes). Direct mode notifies
// watchers with a direct message and reconciles the store in the background.
func (cp *Plane) StatusDelay() time.Duration {
	if !cp.active() {
		return 0
	}
	if cp.mode == config.CPDirect {
		return cp.direct(true)
	}
	return cp.store(true) + cp.watch
}

// MetricReadDelay is the autoscaler's per-tick metric scrape. Baseline: one
// apiserver read (the metrics pipeline rides the store path). Direct: the
// autoscaler reads component metrics over a direct connection.
func (cp *Plane) MetricReadDelay() time.Duration {
	if !cp.active() {
		return 0
	}
	if cp.mode == config.CPDirect {
		return cp.direct(false)
	}
	return cp.store(false)
}

// ScaleWriteDelay is the autoscaler-decision → scheduler-sees-it latency:
// a scale write plus the scheduler's watch propagation in the baseline, a
// direct message to the scheduler in direct mode.
func (cp *Plane) ScaleWriteDelay() time.Duration {
	if !cp.active() {
		return 0
	}
	if cp.mode == config.CPDirect {
		return cp.direct(true)
	}
	return cp.store(true) + cp.watch
}
