package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/parallel"
)

// The acceptance criterion of the overload study: past saturation the
// unprotected arm loses most of its goodput to unbounded queueing (a
// metastable collapse), while the full protection stack sheds the excess
// and keeps goodput at capacity with its p99 inside the SLO.
func TestOverloadCliffAndProtection(t *testing.T) {
	prm := config.Default()
	cap := overloadCapacity(prm)

	none := overloadOnce(1, prm, armNone, 5, true)
	full := overloadOnce(1, prm, armFull, 5, true)
	ddl := overloadOnce(1, prm, armDeadlines, 5, true)

	if g := none.GoodputRPS(); g > 0.7*cap {
		t.Errorf("unprotected goodput at 5x = %.1f rps, want collapse below 0.7x capacity (%.1f)", g, cap)
	}
	if g := full.GoodputRPS(); g < 0.9*cap {
		t.Errorf("protected goodput at 5x = %.1f rps, want >= 0.9x capacity (%.1f)", g, cap)
	}
	if full.Shed == 0 {
		t.Error("full arm shed nothing at 5x load; admission control inactive")
	}
	if full.P99Sec > overloadSLO.Seconds() {
		t.Errorf("full arm p99 = %.2fs, want inside the %.0fs SLO", full.P99Sec, overloadSLO.Seconds())
	}
	// Deadlines alone convert the collapse into deadline drops plus client
	// retries; the budgeted arms must amplify strictly less.
	ddlAmp := float64(ddl.ServerRequests) / float64(ddl.Arrivals)
	fullAmp := float64(full.ServerRequests) / float64(full.Arrivals)
	if ddl.DeadlineDrops == 0 {
		t.Error("deadline arm recorded no deadline drops at 5x load")
	}
	if fullAmp >= ddlAmp {
		t.Errorf("retry amplification: full %.2f >= deadlines-only %.2f; budget not containing retries", fullAmp, ddlAmp)
	}
}

// Under-saturation the protections must be inert: goodput at 1x offered load
// stays near offered for every arm, so the mechanisms cost nothing when the
// system is healthy.
func TestOverloadProtectionsInertUnderCapacity(t *testing.T) {
	prm := config.Default()
	for _, arm := range overloadArms {
		run := overloadOnce(1, prm, arm, 1, true)
		offered := float64(run.Arrivals) / run.WindowSec
		if g := run.GoodputRPS(); g < 0.9*offered {
			t.Errorf("arm %s at 1x: goodput %.1f rps vs offered %.1f; protections degrade a healthy system", arm, g, offered)
		}
	}
}

// The study's rendered table must be byte-identical regardless of the
// worker-pool size, like every other experiment.
func TestOverloadDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) string {
		o := QuickOptions()
		o.Reps = 1
		o.Workers = workers
		var buf bytes.Buffer
		if err := overload.run(o).write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	seq := render(1)
	par := render(4)
	if seq != par {
		t.Errorf("overload table differs between -workers 1 and 4:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", seq, par)
	}
}

// Same-seed same-arm runs must be bit-identical; different seeds must not be
// (the arrival process actually depends on the seed).
func TestOverloadOnceSeedDeterminism(t *testing.T) {
	prm := config.Default()
	fp := func(seed uint64) string {
		r := overloadOnce(seed, prm, armFull, 5, true)
		return fmt.Sprintf("%+v", r)
	}
	if fp(3) != fp(3) {
		t.Error("same seed produced different overload runs")
	}
	if fp(3) == fp(4) {
		t.Error("different seeds produced identical overload runs")
	}
	runs := parallel.Run(4, 4, func(i int) string { return fp(uint64(1 + i%2)) })
	if runs[0] != runs[2] || runs[1] != runs[3] {
		t.Error("overload runs differ across pool workers at equal seeds")
	}
}
