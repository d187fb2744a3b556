// Benchmarks regenerating the paper's tables and figures and the extension
// studies, one per study. Each iteration executes the full scenario in the
// discrete-event simulator; the reported wall time is simulator throughput,
// and the study's own result (virtual seconds, slopes) is attached as
// custom metrics so `go test -bench` output doubles as a results table.
package experiments

import (
	"testing"

	"repro/internal/wms"
)

func quickOpts() Options {
	o := QuickOptions()
	o.Reps = 1
	return o
}

// BenchmarkFig1ContainerReuse regenerates Fig. 1: docker-per-task vs
// knative container reuse over a sequential task sweep.
func BenchmarkFig1ContainerReuse(b *testing.B) {
	o := quickOpts()
	var rows []fig1Row
	for i := 0; i < b.N; i++ {
		rows = fig1.rows(o)
	}
	docker, knative, speedup := fig1Fits(rows)
	b.ReportMetric(docker.Slope, "docker_s/task")
	b.ReportMetric(knative.Slope, "knative_s/task")
	b.ReportMetric(speedup, "reduction_%")
}

// BenchmarkFig2ParallelScaling regenerates Fig. 2: parallel-task scaling of
// native, knative, and condor-container execution.
func BenchmarkFig2ParallelScaling(b *testing.B) {
	o := quickOpts()
	var rows []fig2Row
	for i := 0; i < b.N; i++ {
		rows = fig2.rows(o)
	}
	native, knative, container := fig2Fits(rows)
	b.ReportMetric(native.Slope, "native_s/task")
	b.ReportMetric(knative.Slope, "knative_s/task")
	b.ReportMetric(container.Slope, "container_s/task")
}

// BenchmarkFig5TradeoffPoint regenerates the centre point of Fig. 5's
// ternary sweep (equal thirds of each mode).
func BenchmarkFig5TradeoffPoint(b *testing.B) {
	o := quickOpts()
	mix := Mix{Native: 1.0 / 3, Container: 1.0 / 3, Serverless: 1.0 / 3}
	var res MixResult
	for i := 0; i < b.N; i++ {
		res = RunMix(o, mix)
	}
	b.ReportMetric(res.MakespanSecs, "virtual_s")
}

// BenchmarkFig6Scenarios regenerates each of Fig. 6's five highlighted bars.
func BenchmarkFig6Scenarios(b *testing.B) {
	for _, bar := range fig6Bars {
		b.Run(bar.label, func(b *testing.B) {
			o := quickOpts()
			var res MixResult
			for i := 0; i < b.N; i++ {
				res = RunMix(o, bar.mix)
			}
			b.ReportMetric(res.MakespanSecs, "virtual_s")
		})
	}
}

// BenchmarkColdStart regenerates the Fig. 1 cold-start annotation (1.48 s
// in the paper).
func BenchmarkColdStart(b *testing.B) {
	o := quickOpts()
	var cells []coldCell
	for i := 0; i < b.N; i++ {
		cells = coldStart.rows(o)
	}
	b.ReportMetric(cells[0].cold.Mean(), "cold_virtual_s")
	b.ReportMetric(cells[0].warm.Mean(), "warm_virtual_s")
}

// BenchmarkAblationUplink varies the submit-node uplink — the mechanism
// behind Fig. 2's container slope.
func BenchmarkAblationUplink(b *testing.B) {
	for _, uc := range []struct {
		name string
		bps  float64
	}{{"1Gbps", 1e9 / 8}, {"10Gbps", 10e9 / 8}} {
		b.Run(uc.name, func(b *testing.B) {
			o := quickOpts()
			o.Prm.SubmitUplinkBps = uc.bps
			var rows []fig2Row
			for i := 0; i < b.N; i++ {
				rows = fig2.rows(o)
			}
			_, _, container := fig2Fits(rows)
			b.ReportMetric(container.Slope, "container_s/task")
		})
	}
}

// ---- Extension benchmarks (the paper's §VIII and §IX future work) ----

// BenchmarkExtDataMovement runs the §VIII communication-overhead study.
func BenchmarkExtDataMovement(b *testing.B) {
	o := quickOpts()
	var rows []dataMovementRow
	for i := 0; i < b.N; i++ {
		rows = dataMovement.rows(o)
	}
	for _, row := range rows {
		if row.Mode == wms.ModeServerless {
			b.ReportMetric(row.TotalMB, row.Staging.String()+"_total_MB")
		}
	}
}

// BenchmarkExtResizing runs the §IX-C task-resizing study.
func BenchmarkExtResizing(b *testing.B) {
	o := quickOpts()
	var rows []resizingRow
	for i := 0; i < b.N; i++ {
		rows = resizing.rows(o)
	}
	if len(rows) >= 2 {
		b.ReportMetric(rows[0].Completion.Makespan, "split1_virtual_s")
		b.ReportMetric(rows[len(rows)-1].Completion.Makespan, "splitN_virtual_s")
	}
}

// BenchmarkExtRedirection runs the §IX-D task-redirection study.
func BenchmarkExtRedirection(b *testing.B) {
	o := quickOpts()
	var rows []redirectionRow
	for i := 0; i < b.N; i++ {
		rows = redirection.rows(o)
	}
	for _, row := range rows {
		b.ReportMetric(row.MeanSec, row.Policy+"_mean_s")
	}
}

// BenchmarkExtClustering runs the §II-C task-clustering study.
func BenchmarkExtClustering(b *testing.B) {
	o := quickOpts()
	var rows []clusteringRow
	for i := 0; i < b.N; i++ {
		rows = clustering.rows(o)
	}
	if len(rows) >= 2 {
		b.ReportMetric(rows[0].Completion.Makespan, "unclustered_virtual_s")
		b.ReportMetric(rows[1].Completion.Makespan, "clustered_virtual_s")
	}
}

// BenchmarkExtMontage runs the §IX-A complex-workflow study.
func BenchmarkExtMontage(b *testing.B) {
	o := quickOpts()
	var rows []montageRow
	for i := 0; i < b.N; i++ {
		rows = montage.rows(o)
	}
	for _, row := range rows {
		b.ReportMetric(row.Completion.Makespan, row.Mode.String()+"_virtual_s")
	}
}

// BenchmarkExtPlacement runs the internal/sched policy sweep and reports
// registry egress per kube policy.
func BenchmarkExtPlacement(b *testing.B) {
	o := quickOpts()
	var rows []placementRow
	for i := 0; i < b.N; i++ {
		rows = placement.rows(o)
	}
	for _, row := range rows {
		if row.Mode == wms.ModeServerless {
			b.ReportMetric(row.PulledMB, row.Policy+"_pulled_MB")
		}
	}
}

// BenchmarkExtIsolation quantifies the Fig. 5 isolation axis under a noisy
// co-tenant.
func BenchmarkExtIsolation(b *testing.B) {
	o := quickOpts()
	var rows []isolationRow
	for i := 0; i < b.N; i++ {
		rows = isolation.rows(o)
	}
	for _, row := range rows {
		b.ReportMetric(row.Slowdown, row.Mode.String()+"_slowdown")
	}
}
