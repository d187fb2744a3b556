package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/parallel"
)

// raceEnabled is set under -race (race_test.go), whose instrumentation makes
// the full-size fan DAG too slow to run at every seed.
var raceEnabled bool

// fanDAGSeeds are the seeds the full-size fan DAG is pinned at: 1–12 covers
// every seed an A/B run of up to eleven pairs simulates (pair i at seed i
// also runs seed i+1).
const fanDAGSeeds = 12

// fanDAGGolden renders one run of the full-size fan DAG as a golden line.
// Floats use the shortest representation that round-trips, so the line
// pins them exactly.
func fanDAGGolden(seed uint64, mode config.ExecMode, r ExecModeRun) string {
	g := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	return fmt.Sprintf("seed=%d mode=%s tasks=%d makespan_s=%s poll_s=%s release_spans=%d",
		seed, mode, r.Tasks, g(r.MakespanS), g(r.PollS), r.ReleaseSpans)
}

// TestFanDAGFullSizeSeeds runs the 10,242-task fan-out/fan-in DAG at full
// size under the poll loop and trigger release for seeds 1–12, checks the
// study's invariants (every task settles; event-driven release never
// lengthens the makespan), and pins each run's task count, exact makespan,
// poll bucket and release-marker count to a golden. Quick-size tests run a
// 26-task DAG only, so this is the one check of the engine at the scale
// it is benchmarked at.
func TestFanDAGFullSizeSeeds(t *testing.T) {
	if raceEnabled {
		t.Skip("full-size fan DAG is too slow under -race")
	}
	modes := []config.ExecMode{config.ExecPoll, config.ExecTrigger}
	runs := parallel.Run(fanDAGSeeds*len(modes), 0, func(i int) ExecModeRun {
		return ExecModeOnce(uint64(1+i/len(modes)), config.Default(), modes[i%len(modes)], false)
	})
	size := execModeSizeFor(false)
	wantTasks := size.Width*size.Depth + 2
	var lines []string
	for i, r := range runs {
		seed, mode := uint64(1+i/len(modes)), modes[i%len(modes)]
		if r.Tasks != wantTasks {
			t.Errorf("seed %d %s: %d tasks settled, want %d", seed, mode, r.Tasks, wantTasks)
		}
		if mode == config.ExecTrigger {
			if poll := runs[i-1]; r.MakespanS > poll.MakespanS {
				t.Errorf("seed %d: trigger makespan %gs exceeds poll %gs", seed, r.MakespanS, poll.MakespanS)
			}
		}
		lines = append(lines, fanDAGGolden(seed, mode, r))
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "seedcompat", "fandag-full.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("golden has %d runs, test ran %d", len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("run diverged from its golden:\n got  %s\n want %s", lines[i], want[i])
		}
	}
}
