// Package sched is the placement loop of the testbed, shared by every
// component that must choose "where does this unit of work go": the
// Kubernetes scheduler binding pods to nodes, the HTCondor negotiator
// matching jobs to startd slots, and the Knative router picking a replica.
//
// Scan is the one loop. Each consumer passes it one fused evaluation,
// chosen when the consumer is built, that applies the consumer's
// feasibility checks inline and returns the policy's total score; there is
// no plugin framework. A consumer that records its decisions builds a
// Decision with the per-plugin breakdown for the winner only, and only
// when a tracer is attached, and emits it with Record.
//
// Determinism contract: Scan consults no randomness and keeps no internal
// state. Candidates are visited in the caller's stable order rotated by an
// explicit offset, and only a strictly better score displaces the incumbent,
// so the first candidate in rotation order wins ties. A consumer that wants
// kube-style stable tie-breaking passes a fixed offset; one that wants
// negotiator-style rotation (no machine permanently favoured) passes its own
// incrementing counter. Two same-seed runs therefore place identically, and
// the seed schedulers' exact decision sequences are reproduced by the
// default policies (kube "least-requested", condor "most-free-rr", knative
// "least-requests").
package sched

import (
	"strconv"

	"repro/internal/trace"
)

// Canonical policy names selectable through config.Params. The kube control
// plane accepts least-requested (its seed default), bin-pack, spread, and
// image-locality; the condor negotiator accepts most-free-rr (its seed
// default) and data-locality. The names double as the plugin labels of
// recorded decisions.
const (
	PolicyLeastRequested = "least-requested"
	PolicyBinPack        = "bin-pack"
	PolicySpread         = "spread"
	PolicyImageLocality  = "image-locality"
	PolicyMostFreeRR     = "most-free-rr"
	PolicyDataLocality   = "data-locality"
)

// minFeasibleToScore is the sampling floor: a sampling placement never
// settles for fewer feasible candidates than this (unless fewer exist),
// matching the kube-scheduler's minFeasibleNodesToFind. Small clusters are
// therefore always scored exhaustively and sampling only changes behaviour
// at scale.
const minFeasibleToScore = 100

// SampleTarget returns how many feasible candidates out of n a placement
// scores before stopping early at the given percentage-of-nodes-to-score,
// or n when sampling is off (percent 0 or 100).
func SampleTarget(n, percent int) int {
	if percent <= 0 || percent >= 100 {
		return n
	}
	return min(max(n*percent/100, minFeasibleToScore), n)
}

// Scan is the one placement loop every consumer shares. It visits indices
// 0..n-1 rotated by offset ((i+offset) mod n), asks eval for each one's
// feasibility and total score, and keeps the first strictly highest score —
// the first candidate in rotation order wins ties, which is the whole
// determinism contract: callers that pass a constant offset get stable
// placement, callers that pass an incrementing counter get round-robin
// rotation among equals. It stops once target candidates were feasible
// (see SampleTarget). best is -1 when none was; visited counts the indices
// evaluated.
func Scan(n, offset, target int, eval func(i int) (score float64, ok bool)) (best, feasible, visited int) {
	best = -1
	if n == 0 {
		return best, 0, 0
	}
	idx := offset % n // one division; the loop wraps by compare
	if idx < 0 {
		idx = -idx // defensive; callers pass counters ≥ 0
	}
	bestScore := 0.0
	for visited < n {
		visited++
		score, ok := eval(idx)
		if ok {
			feasible++
			if best < 0 || score > bestScore {
				best, bestScore = idx, score
			}
			if feasible >= target {
				break
			}
		}
		if idx++; idx == n {
			idx = 0
		}
	}
	return best, feasible, visited
}

// PluginScore is one score term's raw (unweighted) value for the winner.
type PluginScore struct {
	Plugin string
	Value  float64
}

// Decision is the traced form of one placement.
type Decision struct {
	// Node names the winner's machine.
	Node string
	// Score is the winner's total: its weighted terms summed from 0, so a
	// winner whose only term is −0 totals +0 (labels "0" and "-0"). The
	// consumers' fused evaluations spell their totals 0 + … and 0 − … to
	// keep both bit for bit.
	Score float64
	// PerPlugin is the winner's raw score per term, in policy order.
	PerPlugin []PluginScore
	// Feasible is the Scan's feasible count.
	Feasible int
}

// formatScore renders a score for trace labels with a stable short form.
func formatScore(v float64) string {
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// Record emits a placement decision as a zero-duration span under parent
// (pass nil for a root span): substrate "sched", operation "place",
// carrying the consuming layer, the policy name, the placed unit, the chosen
// node, the winning total score, and one label per score term. Safe on a
// nil tracer (a no-op).
func Record(tr *trace.Tracer, parent *trace.Span, layer, policy, unit string, d Decision) {
	if tr == nil {
		return
	}
	sp := tr.Start(parent, "sched", "place",
		trace.L("layer", layer),
		trace.L("policy", policy),
		trace.L("unit", unit),
		trace.L("node", d.Node),
		trace.L("score", formatScore(d.Score)),
		trace.L("feasible", strconv.Itoa(d.Feasible)))
	for _, ps := range d.PerPlugin {
		sp.SetLabel("score."+ps.Plugin, formatScore(ps.Value))
	}
	sp.End()
}
