package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/wms"
	"repro/internal/workload"
)

// These tests are the reproduction's shape guards: each asserts the
// qualitative result the paper reports, on the down-scaled Quick sweeps, so
// a regression in any substrate that would change "who wins" fails CI.

func TestFig1ShapeDockerSlowerAndColdStart(t *testing.T) {
	o := QuickOptions()
	rows := fig1.rows(o)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range rows {
		if row.DockerSecs <= row.KnativeSecs {
			t.Errorf("at %d tasks docker %.1fs <= knative %.1fs", row.Tasks, row.DockerSecs, row.KnativeSecs)
		}
	}
	docker, knative, speedup := fig1Fits(rows)
	if docker.Slope <= knative.Slope {
		t.Errorf("docker slope %.3f <= knative slope %.3f", docker.Slope, knative.Slope)
	}
	// Paper: "up to 30%" reduction; accept the 15–35% band.
	if speedup < 15 || speedup > 35 {
		t.Errorf("slope reduction %.1f%%, want 15–35%%", speedup)
	}
	// Paper: 1.48 s cold start.
	if cold := rows[len(rows)-1].coldSecs; cold < 1.2 || cold > 1.8 {
		t.Errorf("cold start %.2fs, want ≈1.48s", cold)
	}
	var sb strings.Builder
	if err := fig1.tabulate(o, rows).write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "docker fit") {
		t.Error("table missing annotations")
	}
}

func TestFig2ShapeSlopes(t *testing.T) {
	o := QuickOptions()
	rows := fig2.rows(o)
	native, knative, container := fig2Fits(rows)
	n, k, c := native.Slope, knative.Slope, container.Slope
	if !(n <= k) {
		t.Errorf("native slope %.3f > knative slope %.3f", n, k)
	}
	// Paper: knative within ~10% of native (0.30 vs 0.28).
	if k > n*1.25 {
		t.Errorf("knative slope %.3f too far above native %.3f", k, n)
	}
	// Paper: container ≈ 3.4x native (0.96 vs 0.28).
	if c < 2.5*n {
		t.Errorf("container slope %.3f not ≫ native %.3f", c, n)
	}
	var sb strings.Builder
	if err := fig2.tabulate(o, rows).write(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestFig6ShapeOrdering(t *testing.T) {
	o := QuickOptions()
	// Quick mode shrinks the workload; keep the paper's geometry by using
	// enough tasks for the per-task overheads to accumulate.
	byLabel := map[string]fig6Row{}
	for _, s := range fig6.rows(o) {
		byLabel[s.Label] = s
	}
	native := byLabel["all-native"].MakespanSecs
	halfKn := byLabel["half-knative-half-native"].MakespanSecs
	allKn := byLabel["all-knative"].MakespanSecs
	allCont := byLabel["all-container"].MakespanSecs
	if !(native <= halfKn && halfKn <= allKn) {
		t.Errorf("knative spectrum out of order: native %.1f, half %.1f, all %.1f", native, halfKn, allKn)
	}
	if allCont <= native {
		t.Errorf("all-container %.1f not slower than native %.1f", allCont, native)
	}
	if allCont <= allKn*0.98 {
		t.Errorf("all-container %.1f faster than all-knative %.1f", allCont, allKn)
	}
	// Paper: all-knative ≈ 1.08x native; accept 1.0–1.25 on quick sweeps.
	ratio := allKn / native
	if ratio < 1.0 || ratio > 1.25 {
		t.Errorf("all-knative/native = %.3f, want ≈1.08", ratio)
	}
}

func TestFig5SimplexCoverageAndExtremes(t *testing.T) {
	points := fig5.rows(QuickOptions())
	// Step 0.5 simplex: 6 points.
	if len(points) != 6 {
		t.Fatalf("points = %d, want 6", len(points))
	}
	var nativeOnly, containerOnly float64
	for _, pt := range points {
		sum := pt.Mix.Native + pt.Mix.Container + pt.Mix.Serverless
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("mix %v does not sum to 1", pt.Mix)
		}
		if pt.MakespanSecs <= 0 {
			t.Errorf("mix %v has non-positive makespan", pt.Mix)
		}
		if pt.Mix.Native == 1 {
			nativeOnly = pt.MakespanSecs
		}
		if pt.Mix.Container == 1 {
			containerOnly = pt.MakespanSecs
		}
	}
	if nativeOnly == 0 || containerOnly == 0 {
		t.Fatal("simplex extremes missing")
	}
	if containerOnly <= nativeOnly {
		t.Errorf("container corner %.1f not slower than native corner %.1f", containerOnly, nativeOnly)
	}
}

func TestColdStartShape(t *testing.T) {
	o := QuickOptions()
	cells := coldStart.rows(o)
	staged, pulled := cells[0], cells[1]
	cold, warm, coldNoImage := staged.cold.Mean(), staged.warm.Mean(), pulled.cold.Mean()
	if cold < 1.2 || cold > 1.8 {
		t.Errorf("cold = %.3fs, want ≈1.48s", cold)
	}
	if warm >= cold/10 {
		t.Errorf("warm %.3fs not ≪ cold %.3fs", warm, cold)
	}
	if coldNoImage <= cold {
		t.Errorf("un-staged cold %.3fs not slower than staged %.3fs", coldNoImage, cold)
	}
	var sb strings.Builder
	if err := coldStart.tabulate(o, cells).write(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicExperiments(t *testing.T) {
	o := QuickOptions()
	a := RunMix(o, Mix{Serverless: 1})
	b := RunMix(o, Mix{Serverless: 1})
	if a.MakespanSecs != b.MakespanSecs {
		t.Errorf("same seed differs: %.6f vs %.6f", a.MakespanSecs, b.MakespanSecs)
	}
	o2 := o
	o2.Seed += 100
	c := RunMix(o2, Mix{Serverless: 1})
	if c.MakespanSecs == a.MakespanSecs {
		t.Log("different seeds coincided (possible but unlikely)")
	}
}

// TestSharedWorkflowAcrossWorkers runs one *wms.Workflow, shared read-only
// as the Fig. 5 sweep shares its chains, from four workers at once (under
// -race this catches any write to the shared DAG) and checks every run
// returns the identical result.
func TestSharedWorkflowAcrossWorkers(t *testing.T) {
	prm := config.Default()
	wf := workload.Chain("shared", 6, prm.MatrixBytes)
	runs := parallel.Run(8, 4, func(int) *wms.RunResult {
		s := core.NewStack(1, prm)
		s.RegisterTransformation(workload.MatmulTransformation, appLayer(prm))
		var res *wms.RunResult
		s.Env.Go("main", func(p *sim.Proc) {
			defer s.Shutdown()
			var err error
			res, err = s.Engine.RunWorkflow(p, wf, wms.AssignAll(wms.ModeContainer))
			if err != nil {
				t.Error(err)
			}
		})
		s.Env.Run()
		return res
	})
	for i, res := range runs {
		if res == nil || len(res.Tasks) != wf.Len() {
			t.Fatalf("run %d: incomplete result %+v", i, res)
		}
		if !reflect.DeepEqual(res, runs[0]) {
			t.Errorf("run %d differs from run 0 on the shared workflow", i)
		}
	}
}
