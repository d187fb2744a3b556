package experiments

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/trace/tracetest"
	"repro/internal/wms"
)

// Worker-count invariance (1 vs 8) for Placement is asserted alongside every
// other experiment in TestWorkerCountInvariance (runner_test.go).

// TestPlacementPolicyEffects pins the two headline results of the placement
// study: image-locality pulls fewer registry bytes than the seed
// least-requested kube policy, and data-locality spends less shared-fs
// staging time than the seed most-free-rr condor policy. All runs complete.
func TestPlacementPolicyEffects(t *testing.T) {
	rows := map[string]placementRow{}
	for _, row := range placement.rows(QuickOptions()) {
		rows[row.Mode.String()+"/"+row.Policy] = row
		if row.CompletionRate != 1 {
			t.Errorf("%s/%s: completion %v, want 1", row.Mode, row.Policy, row.CompletionRate)
		}
	}
	seedK := rows["serverless/"+sched.PolicyLeastRequested]
	imgLoc := rows["serverless/"+sched.PolicyImageLocality]
	if !(imgLoc.PulledMB < seedK.PulledMB) {
		t.Errorf("image-locality pulled %v MB, not below least-requested %v MB", imgLoc.PulledMB, seedK.PulledMB)
	}
	seedC := rows["native/"+sched.PolicyMostFreeRR]
	dataLoc := rows["native/"+sched.PolicyDataLocality]
	if !(dataLoc.StagingS < seedC.StagingS) {
		t.Errorf("data-locality staged %v s, not below most-free-rr %v s", dataLoc.StagingS, seedC.StagingS)
	}
}

// TestPlacementSpansCarryDecision asserts every placement decision recorded
// by internal/sched — across the kube, knative, and condor layers — carries
// the chosen node, the policy name, and the winning score as span labels.
func TestPlacementSpansCarryDecision(t *testing.T) {
	prm := QuickOptions().Prm
	wantLayers := map[wms.Mode][]string{
		wms.ModeServerless: {"kube", "knative"},
		wms.ModeNative:     {"condor"},
	}
	for mode, layers := range wantLayers {
		tc, err := traceOnce(1, prm, traceCell{mode: mode}, true)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		spans := tracetest.MustFind(t, tc.tracer, tracetest.Match{Substrate: "sched", Name: "place"})
		seen := map[string]bool{}
		for _, sp := range spans {
			layer, _ := sp.Label("layer")
			seen[layer] = true
			for _, key := range []string{"node", "policy", "score"} {
				if v, ok := sp.Label(key); !ok || v == "" {
					t.Errorf("%v: placement span (layer %s) missing label %q", mode, layer, key)
				}
			}
		}
		for _, layer := range layers {
			if !seen[layer] {
				t.Errorf("%v: no placement span from layer %q (got %v)", mode, layer, seen)
			}
		}
	}
}
