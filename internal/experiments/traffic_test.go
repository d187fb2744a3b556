package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTrafficArmsDifferentiate is the study's sanity gate on the quick
// size: every arm sees the same arrivals (the trace is seeded identically),
// everything completes or is accounted for, and the clamped arm — which
// holds capacity through the scale-down delay — spends at least as many
// pod-seconds as the seed configuration.
func TestTrafficArmsDifferentiate(t *testing.T) {
	o := QuickOptions()
	o.Workers = 1
	rows := traffic.rows(o)
	if len(rows) != len(trafficArms) {
		t.Fatalf("rows = %d, want %d", len(rows), len(trafficArms))
	}
	byName := map[string]trafficRow{}
	for _, row := range rows {
		byName[row.Arm] = row
		if row.Arrivals <= 0 {
			t.Errorf("arm %s saw no arrivals", row.Arm)
		}
		if row.P50Ms <= 0 || row.P999Ms < row.P99Ms || row.P99Ms < row.P50Ms {
			t.Errorf("arm %s has inconsistent percentiles: p50 %.1f p99 %.1f p999 %.1f",
				row.Arm, row.P50Ms, row.P99Ms, row.P999Ms)
		}
		if row.PodSecs <= 0 {
			t.Errorf("arm %s recorded no pod-seconds", row.Arm)
		}
	}
	for _, row := range rows {
		if row.Arrivals != rows[0].Arrivals {
			t.Errorf("arm %s arrivals %.0f != %s arrivals %.0f; trace not shared across arms",
				row.Arm, row.Arrivals, rows[0].Arm, rows[0].Arrivals)
		}
	}
	if byName["clamped"].PodSecs < byName["seed"].PodSecs {
		t.Errorf("clamped pod-seconds %.1f < seed %.1f; scale-down delay not holding capacity",
			byName["clamped"].PodSecs, byName["seed"].PodSecs)
	}
}

// TestSeedCompatGoldens replays every experiment that has a golden under
// testdata/seedcompat (<name>-quick.golden, the `repro -quick <name>`
// output) and compares it byte-for-byte. The coldstart, fig1, fig5 and
// overload goldens were captured from the pre-refactor autoscaler (the
// seed's inline loop); together with kpa.TestKPADifferentialSeedCompat they
// pin the default internal/kpa parameterization to the exact replica traces
// the old code produced. The trace and chaos goldens were captured
// immediately before the engine's execution-mode refactor: they pin the
// poll-mode release path (the default) to the seed loop's byte-exact traces
// and span orderings. The traffic, execmode, fig2, fig6, datamove, resize,
// redirect, clustering, montage and isolation goldens were captured
// immediately before the kernel's timer wheel and same-timestamp chain
// were deleted: they pin every remaining experiment to the bytes the
// two-structure event queue produced.
func TestSeedCompatGoldens(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "seedcompat", "*-quick.golden"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no seedcompat goldens found (err %v)", err)
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), "-quick.golden")
		t.Run(name, func(t *testing.T) {
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			exps, err := Select(name)
			if err != nil || len(exps) != 1 {
				t.Fatalf("golden %s names no single experiment: %v", path, err)
			}
			o := QuickOptions()
			o.Workers = 0 // worker count is proven irrelevant; use the pool
			var buf bytes.Buffer
			if err := WriteSection(&buf, exps[0], o); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), golden) {
				t.Errorf("%s output diverged from its golden:\n--- got ---\n%s--- want ---\n%s",
					name, buf.Bytes(), golden)
			}
		})
	}
}
