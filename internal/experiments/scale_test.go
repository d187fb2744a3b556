package experiments

import (
	"testing"

	"repro/internal/config"
)

// TestScaleStudyQuick checks the study's headline claim at quick scale:
// every cell completes its placements, the baseline pays apiserver queue
// wait, and the direct path beats the baseline's placement p99 and
// bindings/s at the largest node count.
func TestScaleStudyQuick(t *testing.T) {
	rows := scale.rows(QuickOptions())
	nodeCounts := scaleNodeCounts(true)
	if want := 2 * len(nodeCounts); len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	total, speedup, _ := scaleSummary(rows)
	if want := 2 * len(nodeCounts) * scalePlacements(true); total != want {
		t.Fatalf("total placements = %d, want %d", total, want)
	}
	for _, row := range rows {
		if row.Placements != scalePlacements(true) {
			t.Errorf("%s/%d placed %d pods, want %d", row.Mode, row.Nodes, row.Placements, scalePlacements(true))
		}
		if row.P50Ms <= 0 || row.P99Ms < row.P50Ms || row.BindsPerS <= 0 {
			t.Errorf("%s/%d: implausible stats %+v", row.Mode, row.Nodes, row)
		}
	}
	largest := nodeCounts[len(nodeCounts)-1]
	var base, direct ScaleRun
	for _, row := range rows {
		if row.Nodes != largest {
			continue
		}
		switch row.Mode {
		case config.CPStore.String():
			base = row
		case config.CPDirect.String():
			direct = row
		}
	}
	if base.QMaxMs <= 0 {
		t.Errorf("baseline saw no apiserver queue wait: %+v", base)
	}
	if direct.QMaxMs != 0 {
		t.Errorf("direct mode queued on the apiserver: %+v", direct)
	}
	if direct.P99Ms >= base.P99Ms {
		t.Errorf("direct p99 %.1fms not under baseline %.1fms at %d nodes",
			direct.P99Ms, base.P99Ms, largest)
	}
	if direct.BindsPerS <= base.BindsPerS {
		t.Errorf("direct bindings/s %.1f not over baseline %.1f at %d nodes",
			direct.BindsPerS, base.BindsPerS, largest)
	}
	if speedup <= 1 {
		t.Errorf("p99 speedup %.2f, want > 1", speedup)
	}
}

// TestScaleOnceDeterministic: a cell is a pure function of its inputs —
// there is no randomness anywhere on the placement path.
func TestScaleOnceDeterministic(t *testing.T) {
	o := QuickOptions()
	a := ScaleOnce(o.Prm, config.CPDirect, 16, 200)
	b := ScaleOnce(o.Prm, config.CPDirect, 16, 200)
	if a != b {
		t.Errorf("reruns diverged: %+v vs %+v", a, b)
	}
}
