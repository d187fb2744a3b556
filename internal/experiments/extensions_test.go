package experiments

import (
	"strings"
	"testing"

	"repro/internal/wms"
)

func TestDataMovementShape(t *testing.T) {
	o := QuickOptions()
	rows := dataMovement.rows(o)
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	byKey := map[string]dataMovementRow{}
	for _, row := range rows {
		byKey[row.Mode.String()+"/"+row.Staging.String()] = row
	}
	cont := byKey["container/by-value"]
	nat := byKey["native/by-value"]
	slsVal := byKey["serverless/by-value"]
	slsFS := byKey["serverless/shared-fs"]
	slsOS := byKey["serverless/object-store"]

	// The container path ships the image with every job: far more traffic.
	if cont.SubmitTxMB < 10*nat.SubmitTxMB {
		t.Errorf("container tx %.1fMB not ≫ native %.1fMB", cont.SubmitTxMB, nat.SubmitTxMB)
	}
	// §IV-4 redundant movement: by-value serverless moves more total data
	// than the shared-fs alternative (submit → wrapper → pod).
	if slsVal.TotalMB <= slsFS.TotalMB {
		t.Errorf("by-value total %.1fMB not > shared-fs %.1fMB", slsVal.TotalMB, slsFS.TotalMB)
	}
	// Shared-fs staging also shaves the codec cost off the makespan.
	if slsFS.Makespan > slsVal.Makespan {
		t.Errorf("shared-fs makespan %.1fs slower than by-value %.1fs", slsFS.Makespan, slsVal.Makespan)
	}
	// The object store behaves like the share: one hop, no marshalling tax.
	if slsOS.TotalMB >= slsVal.TotalMB {
		t.Errorf("object-store total %.1fMB not < by-value %.1fMB", slsOS.TotalMB, slsVal.TotalMB)
	}
	var sb strings.Builder
	if err := dataMovement.tabulate(o, rows).write(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestResizingTradeoff(t *testing.T) {
	o := QuickOptions()
	rows := resizing.rows(o)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Quick mode compares split 1 vs 4: splitting a heavy task must help.
	if rows[1].Completion.Makespan >= rows[0].Completion.Makespan {
		t.Errorf("split 4 (%.1fs) not faster than split 1 (%.1fs)", rows[1].Completion.Makespan, rows[0].Completion.Makespan)
	}
	for _, row := range rows {
		if row.Tasks != 5*row.Split {
			t.Errorf("split %d has %d tasks", row.Split, row.Tasks)
		}
	}
	var sb strings.Builder
	if err := resizing.tabulate(o, rows).write(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestRedirectionAvoidsHotNode(t *testing.T) {
	o := QuickOptions()
	rows := redirection.rows(o)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	lr, lnl := rows[0], rows[1]
	if lr.Policy != "least-requests" || lnl.Policy != "least-node-load" {
		t.Fatalf("row order: %v", rows)
	}
	if lnl.MeanSec >= lr.MeanSec {
		t.Errorf("load-aware mean %.3fs not better than default %.3fs", lnl.MeanSec, lr.MeanSec)
	}
	if lnl.P95Sec > lr.P95Sec {
		t.Errorf("load-aware p95 %.3fs worse than default %.3fs", lnl.P95Sec, lr.P95Sec)
	}
	var sb strings.Builder
	if err := redirection.tabulate(o, rows).write(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestClusteringAmortisesScheduling(t *testing.T) {
	o := QuickOptions()
	rows := clustering.rows(o)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	unclustered, clustered := rows[0], rows[1]
	if clustered.Completion.Makespan >= unclustered.Completion.Makespan {
		t.Errorf("clustered %.1fs not faster than unclustered %.1fs", clustered.Completion.Makespan, unclustered.Completion.Makespan)
	}
	if clustered.Jobs >= unclustered.Jobs {
		t.Errorf("clustering did not reduce job count: %d vs %d", clustered.Jobs, unclustered.Jobs)
	}
	var sb strings.Builder
	if err := clustering.tabulate(o, rows).write(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestMontageComplexWorkflowOrdering(t *testing.T) {
	o := QuickOptions()
	rows := montage.rows(o)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byMode := map[wms.Mode]montageRow{}
	for _, row := range rows {
		byMode[row.Mode] = row
		if row.Tasks != 14 { // 4 tiles: 4+3+1+1+4+1
			t.Errorf("%v tasks = %d, want 14", row.Mode, row.Tasks)
		}
	}
	native := byMode[wms.ModeNative].Completion.Makespan
	sls := byMode[wms.ModeServerless].Completion.Makespan
	cont := byMode[wms.ModeContainer].Completion.Makespan
	if !(native <= sls && native < cont) {
		t.Errorf("mode ordering broken on complex workflow: native %.1f, serverless %.1f, container %.1f", native, sls, cont)
	}
	var sb strings.Builder
	if err := montage.tabulate(o, rows).write(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestIsolationQuantified(t *testing.T) {
	o := QuickOptions()
	o.Reps = 1
	rows := isolation.rows(o)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byMode := map[wms.Mode]isolationRow{}
	for _, row := range rows {
		byMode[row.Mode] = row
	}
	native := byMode[wms.ModeNative]
	if native.Slowdown < 1.5 {
		t.Errorf("native slowdown = %.2f, want substantial (no isolation)", native.Slowdown)
	}
	for _, m := range []wms.Mode{wms.ModeContainer, wms.ModeServerless} {
		row := byMode[m]
		if row.Slowdown > 1.05 {
			t.Errorf("%v slowdown = %.2f, want ≈1.0 (cgroup reservation)", m, row.Slowdown)
		}
	}
	var sb strings.Builder
	if err := isolation.tabulate(o, rows).write(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestMixStringFormat(t *testing.T) {
	m := Mix{Native: 0.5, Serverless: 0.5}
	if m.String() != "0.50/0.00/0.50" {
		t.Errorf("String = %q", m.String())
	}
	_ = wms.ModeNative // keep the import meaningful if assertions change
}
