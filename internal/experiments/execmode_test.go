package experiments

import (
	"testing"

	"repro/internal/config"
)

// TestExecModeStudyQuick checks the study's headline claim at quick scale:
// every mode completes the full DAG, and the event-driven modes eliminate at
// least 90% of the poll mode's dagman-poll critical-path bucket.
func TestExecModeStudyQuick(t *testing.T) {
	o := QuickOptions()
	rows := execMode.tabulate(o, execMode.rows(o)).rows.([]execModeRow)
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	size := execModeSizeFor(true)
	wantTasks := size.Width*size.Depth + 2
	if rows[2].tasks != wantTasks {
		t.Fatalf("tasks = %d, want %d", rows[2].tasks, wantTasks)
	}
	if rows[0].Mode != config.ExecPoll {
		t.Fatalf("first row is %s, want poll", rows[0].Mode)
	}
	if rows[0].PollMeanS <= 0 {
		t.Fatalf("poll mode has empty dagman-poll bucket (%v s)", rows[0].PollMeanS)
	}
	for _, row := range rows[1:] {
		if row.PollElimPct < 90 {
			t.Errorf("mode %s eliminated only %.1f%% of the poll bucket, want >= 90%%",
				row.Mode, row.PollElimPct)
		}
		if row.ReleaseSpans == 0 {
			t.Errorf("mode %s emitted no release markers", row.Mode)
		}
		if row.P50S > rows[0].P50S {
			t.Errorf("mode %s p50 makespan %.3fs exceeds poll %.3fs",
				row.Mode, row.P50S, rows[0].P50S)
		}
	}
	if rows[0].ReleaseSpans != 0 {
		t.Errorf("poll mode emitted %v release markers, want 0", rows[0].ReleaseSpans)
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
