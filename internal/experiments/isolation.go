package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/wms"
	"repro/internal/workload"
)

// IsolationRow quantifies one execution mode's performance isolation
// (means ± sample stddev over N seeded repetitions).
type IsolationRow struct {
	Mode wms.Mode
	// QuietExecSecs is the mean task execution time on an idle cluster.
	QuietExecSecs float64
	QuietStd      float64
	// ContendedExecSecs is the same under a noisy co-tenant saturating
	// every worker.
	ContendedExecSecs float64
	ContendedStd      float64
	// Slowdown = contended / quiet — 1.0 is perfect isolation.
	Slowdown float64
	N        int
}

// IsolationResult quantifies the isolation axis of the paper's Fig. 5
// triangle, which the paper treats qualitatively: under a noisy co-tenant,
// native tasks slow down (they have no resource guarantee) while
// containerized and serverless tasks hold their cgroup reservation.
type IsolationResult struct {
	Rows []IsolationRow
}

// Isolation runs a chain of heavy tasks (20 core-seconds each, a
// long-running experiment) in each mode, on a quiet cluster and again with
// 16 uncapped background jobs per worker, and compares per-task execution
// times.
func Isolation(o Options) IsolationResult {
	tasks := 5
	if o.Quick {
		tasks = 3
	}
	modes := []wms.Mode{wms.ModeNative, wms.ModeContainer, wms.ModeServerless}
	type isoRep struct{ quiet, contended float64 }
	runs := sweep(o, modes, func(mode wms.Mode, seed uint64) isoRep {
		return isoRep{
			quiet:     isolationRun(seed, o, mode, tasks, false),
			contended: isolationRun(seed, o, mode, tasks, true),
		}
	})
	var res IsolationResult
	for mi, mode := range modes {
		row := IsolationRow{Mode: mode}
		var qw, cw metrics.Welford
		for _, rep := range runs[mi] {
			qw.Add(rep.quiet)
			cw.Add(rep.contended)
		}
		row.QuietExecSecs = qw.Mean()
		row.QuietStd = qw.Std()
		row.ContendedExecSecs = cw.Mean()
		row.ContendedStd = cw.Std()
		row.N = qw.N()
		if row.QuietExecSecs > 0 {
			row.Slowdown = row.ContendedExecSecs / row.QuietExecSecs
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// isolationRun returns the mean task execution time (start → finish on the
// worker) for one victim chain.
func isolationRun(seed uint64, o Options, mode wms.Mode, tasks int, contended bool) float64 {
	s := core.NewStack(seed, o.Prm)
	s.RegisterTransformation(workload.MatmulTransformation, o.Prm.ImageLayersBytes[len(o.Prm.ImageLayersBytes)-1])
	var mean float64
	s.Env.Go("main", func(p *sim.Proc) {
		defer s.Shutdown()
		if mode == wms.ModeServerless {
			if err := s.DeployFunction(p, workload.MatmulTransformation, core.ReusePolicy()); err != nil {
				panic(err)
			}
		}
		if contended {
			// The co-tenant: 16 uncapped compute jobs per worker, running
			// outside any cgroup (a greedy native user).
			for _, w := range s.Cluster.Workers {
				w := w
				for i := 0; i < 16; i++ {
					s.Env.Go("tenant", func(hp *sim.Proc) { w.Exec(hp, 1e6, 0) })
				}
			}
			p.Sleep(o.Prm.NegotiationDelay / 4) // let the storm establish
		}
		wf := heavyChain("iso", tasks, o.Prm.MatrixBytes)
		result, err := s.Engine.RunWorkflow(p, wf, wms.AssignAll(mode))
		if err != nil {
			panic(err)
		}
		// Sum in workflow task order: result.Tasks is a map, and ranging
		// over it directly makes the float accumulation order — and hence
		// the last ulps of the mean — vary run to run.
		ids := wf.TaskIDs()
		var sum float64
		for _, id := range ids {
			t := result.Tasks[id]
			sum += (t.FinishedAt - t.StartedAt).Seconds()
		}
		mean = sum / float64(len(ids))
	})
	// The co-tenant never finishes; bound the run generously.
	s.Env.RunUntil(4 * 3600 * 1e9)
	return mean
}

// heavyChain is a sequential chain of ~20-core-second tasks.
func heavyChain(name string, tasks int, matrixBytes int64) *wms.Workflow {
	wf := workload.Chain(name, tasks, matrixBytes)
	for _, id := range wf.TaskIDs() {
		t, _ := wf.Task(id)
		t.WorkScale = 48 // ≈ 20 core-seconds at the calibrated demand
	}
	return wf
}

// WriteTable renders the isolation comparison.
func (r IsolationResult) WriteTable(w io.Writer) error {
	tbl := metrics.NewTable("mode", "quiet_exec_s", "quiet_std_s", "contended_exec_s", "contended_std_s", "slowdown", "n")
	for _, row := range r.Rows {
		tbl.AddRow(row.Mode.String(), row.QuietExecSecs, row.QuietStd, row.ContendedExecSecs, row.ContendedStd, row.Slowdown, row.N)
	}
	if err := tbl.Write(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "\nextension: the isolation axis of Fig. 5's triangle, quantified — cgroup\nreservations hold containerized and serverless tasks at ~1.0x under a noisy\nco-tenant while native tasks slow with the node's load\n")
	return err
}
