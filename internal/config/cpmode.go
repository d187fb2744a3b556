package config

import (
	"fmt"
	"strings"
)

// CPMode selects the control plane's communication path — how
// placement-critical messages (pod bindings, deletions, kubelet status
// updates, autoscaler metric and scale traffic) travel between the
// scheduler, the kubelets, and the autoscalers. Both modes share the same
// cost constants (APIServerQPS, APIServerLatency, EtcdCommitLatency,
// WatchLatency); they differ in which costs sit on the placement-critical
// path.
type CPMode int

const (
	// CPStore is the store-mediated baseline (the default, and what the
	// empty knob value means): every control-plane message is an apiserver
	// request — it waits in the shared apiserver queue, pays the request
	// latency, commits to the etcd-style store (writes), and reaches its
	// watchers one watch/informer propagation delay later. With all cost
	// constants zero this degenerates to the seed's free control plane.
	CPStore CPMode = iota
	// CPDirect is the Kubedirect-style fast path: placement-critical
	// messages pass directly between stable components (scheduler →
	// kubelet, kubelet → watchers, autoscaler ↔ metrics), paying only the
	// network's one-way latency. The store is still reconciled, but
	// asynchronously and off the critical path ("lightweight opportunistic
	// state management") — the Plane counts those writes without blocking
	// anyone on them.
	CPDirect
)

// String returns the mode's canonical knob value.
func (m CPMode) String() string {
	switch m {
	case CPStore:
		return "baseline"
	case CPDirect:
		return "direct"
	default:
		return fmt.Sprintf("CPMode(%d)", int(m))
	}
}

// CPModes lists every control-plane mode in canonical order.
func CPModes() []CPMode {
	return []CPMode{CPStore, CPDirect}
}

// cpModeNames lists the accepted knob values in canonical order.
func cpModeNames() []string {
	names := make([]string, 0, 2)
	for _, m := range CPModes() {
		names = append(names, m.String())
	}
	return names
}

// ParseCPMode resolves a CPMode knob value. The empty string is CPStore
// (the seed behaviour); anything else unrecognised is an error naming the
// valid values — a misconfiguration must fail the run, never fall back to
// the free control plane silently.
func ParseCPMode(s string) (CPMode, error) {
	switch s {
	case "", "baseline":
		return CPStore, nil
	case "direct":
		return CPDirect, nil
	default:
		return CPStore, fmt.Errorf("config: unknown control-plane mode %q (valid: %s)",
			s, strings.Join(cpModeNames(), ", "))
	}
}
