package sched

import "repro/internal/cluster"

// Standard plugin constructors. Plugins that need consumer state (scratch
// residency, replica handles) take it as a closure so the framework stays
// free of scheduler-specific bookkeeping. The kube policies' filters and
// scores are not plugins: kube evaluates them fused over its own per-node
// slices (see Scan).

// Canonical policy names selectable through config.Params. The kube control
// plane accepts least-requested (its seed default), bin-pack, spread, and
// image-locality; the condor negotiator accepts most-free-rr (its seed
// default) and data-locality.
const (
	PolicyLeastRequested = "least-requested"
	PolicyBinPack        = "bin-pack"
	PolicySpread         = "spread"
	PolicyImageLocality  = "image-locality"
	PolicyMostFreeRR     = "most-free-rr"
	PolicyDataLocality   = "data-locality"
)

// ---- Filters ----

// SlotFree rejects candidates with no free execution slots (condor startds).
func SlotFree() Filter {
	return Filter{Name: "slot-free", Fit: func(req Request, c Candidate) bool {
		return c.Free > 0
	}}
}

// Requirements applies the request's ClassAd-style requirements expression.
func Requirements() Filter {
	return Filter{Name: "requirements", Fit: func(req Request, c Candidate) bool {
		return req.Requires == nil || req.Requires(c.Node)
	}}
}

// FilterFunc wraps a consumer-specific predicate (e.g. "this startd is
// offline", "this replica is ready with gate capacity") as a named Filter.
func FilterFunc(name string, fit func(req Request, c Candidate) bool) Filter {
	return Filter{Name: name, Fit: fit}
}

// ---- Scores ----

// MostFree prefers the candidate with the most free slots — the seed condor
// negotiator's spreading rule.
func MostFree() Score {
	return Score{Name: "most-free", Eval: func(req Request, c Candidate) float64 {
		return float64(c.Free)
	}}
}

// DataLocality scores the fraction of the request's input files already
// resident on the candidate's node (scratch/staging residency): 1 when every
// input is local, 0 when none are (or the request has no inputs).
func DataLocality(resident func(node *cluster.Node, lfn string) bool) Score {
	return Score{Name: "data-locality", Eval: func(req Request, c Candidate) float64 {
		if len(req.Inputs) == 0 {
			return 0
		}
		n := 0
		for _, lfn := range req.Inputs {
			if resident(c.Node, lfn) {
				n++
			}
		}
		return float64(n) / float64(len(req.Inputs))
	}}
}

// ScoreFunc wraps a consumer-specific evaluator as a named Score.
func ScoreFunc(name string, weight float64, eval func(req Request, c Candidate) float64) Score {
	return Score{Name: name, Weight: weight, Eval: eval}
}
