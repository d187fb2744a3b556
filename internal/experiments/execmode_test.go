package experiments

import (
	"testing"

	"repro/internal/config"
)

// TestExecModeStudyQuick checks the study's headline claim at quick scale:
// every mode completes the full DAG, and the event-driven modes eliminate at
// least 90% of the poll mode's dagman-poll critical-path bucket.
func TestExecModeStudyQuick(t *testing.T) {
	res := ExecModeStudy(QuickOptions())
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	size := execModeSizeFor(true)
	wantTasks := size.Width*size.Depth + 2
	if res.Tasks != wantTasks {
		t.Fatalf("tasks = %d, want %d", res.Tasks, wantTasks)
	}
	if res.Rows[0].Mode != "poll" {
		t.Fatalf("first row is %s, want poll", res.Rows[0].Mode)
	}
	if res.Rows[0].PollMeanS <= 0 {
		t.Fatalf("poll mode has empty dagman-poll bucket (%v s)", res.Rows[0].PollMeanS)
	}
	for _, row := range res.Rows[1:] {
		if row.PollElimPct < 90 {
			t.Errorf("mode %s eliminated only %.1f%% of the poll bucket, want >= 90%%",
				row.Mode, row.PollElimPct)
		}
		if row.ReleaseSpans == 0 {
			t.Errorf("mode %s emitted no release markers", row.Mode)
		}
		if row.P50S > res.Rows[0].P50S {
			t.Errorf("mode %s p50 makespan %.3fs exceeds poll %.3fs",
				row.Mode, row.P50S, res.Rows[0].P50S)
		}
	}
	if res.Rows[0].ReleaseSpans != 0 {
		t.Errorf("poll mode emitted %v release markers, want 0", res.Rows[0].ReleaseSpans)
	}
}

// TestExecModeOnceDeterministic: one (seed, mode) run is a pure function of
// its inputs — reruns agree exactly, and different modes replay the same DAG.
func TestExecModeOnceDeterministic(t *testing.T) {
	o := QuickOptions()
	a := ExecModeOnce(o.Seed, o.Prm, config.ExecDecentralized, true)
	b := ExecModeOnce(o.Seed, o.Prm, config.ExecDecentralized, true)
	if a != b {
		t.Errorf("same-seed runs diverged: %+v vs %+v", a, b)
	}
}
