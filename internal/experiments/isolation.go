package experiments

import (
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/wms"
	"repro/internal/workload"
)

// isolationRow quantifies one execution mode's performance isolation
// (means ± sample stddev over N seeded repetitions).
type isolationRow struct {
	Mode wms.Mode `col:"mode"`
	// QuietExecSecs is the mean task execution time on an idle cluster.
	QuietExecSecs float64 `col:"quiet_exec_s"`
	QuietStd      float64 `col:"quiet_std_s"`
	// ContendedExecSecs is the same under a noisy co-tenant saturating
	// every worker.
	ContendedExecSecs float64 `col:"contended_exec_s"`
	ContendedStd      float64 `col:"contended_std_s"`
	// Slowdown = contended / quiet — 1.0 is perfect isolation.
	Slowdown float64 `col:"slowdown"`
	N        int     `col:"n"`
}

type isoRep struct{ quiet, contended float64 }

// isolation quantifies the isolation axis of the paper's Fig. 5 triangle,
// which the paper treats qualitatively: under a noisy co-tenant, native
// tasks slow down (they have no resource guarantee) while containerized and
// serverless tasks hold their cgroup reservation. It runs a chain of heavy
// tasks (20 core-seconds each, a long-running experiment) in each mode, on
// a quiet cluster and again with 16 uncapped background jobs per worker,
// and compares per-task execution times.
var isolation = study[wms.Mode, isoRep, isolationRow]{
	cells: func(Options) []wms.Mode {
		return []wms.Mode{wms.ModeNative, wms.ModeContainer, wms.ModeServerless}
	},
	once: func(o Options, mode wms.Mode, seed uint64) isoRep {
		tasks := sized(o.Quick, 5, 3)
		return isoRep{
			quiet:     isolationRun(seed, o.Prm, mode, tasks, false),
			contended: isolationRun(seed, o.Prm, mode, tasks, true),
		}
	},
	fold: func(_ Options, mode wms.Mode, reps []isoRep) isolationRow {
		var qw, cw metrics.Welford
		for _, rep := range reps {
			qw.Add(rep.quiet)
			cw.Add(rep.contended)
		}
		row := isolationRow{Mode: mode, QuietExecSecs: qw.Mean(), QuietStd: qw.Std(),
			ContendedExecSecs: cw.Mean(), ContendedStd: cw.Std(), N: qw.N()}
		if row.QuietExecSecs > 0 {
			row.Slowdown = row.ContendedExecSecs / row.QuietExecSecs
		}
		return row
	},
	note: "\nextension: the isolation axis of Fig. 5's triangle, quantified — cgroup\nreservations hold containerized and serverless tasks at ~1.0x under a noisy\nco-tenant while native tasks slow with the node's load\n",
}

// isolationRun returns the mean task execution time (start → finish on the
// worker) for one victim chain.
func isolationRun(seed uint64, prm config.Params, mode wms.Mode, tasks int, contended bool) float64 {
	s := core.NewStack(seed, prm)
	wf := heavyChain("iso", tasks, prm.MatrixBytes)
	res, err := workflowRun{wf: wf, mode: mode, policy: core.ReusePolicy(),
		before: func(p *sim.Proc) {
			if !contended {
				return
			}
			// The co-tenant: 16 uncapped compute jobs per worker, running
			// outside any cgroup (a greedy native user).
			for _, w := range s.Cluster.Workers {
				for i := 0; i < 16; i++ {
					s.Env.Go("tenant", func(hp *sim.Proc) { w.Exec(hp, 1e6, 0) })
				}
			}
			p.Sleep(prm.NegotiationDelay / 4) // let the storm establish
		},
		// The co-tenant never finishes; bound the run generously.
		horizon: 4 * time.Hour,
	}.on(s)
	if err != nil {
		panic(err)
	}
	var sum float64
	for _, t := range res.Tasks {
		sum += (t.FinishedAt - t.StartedAt).Seconds()
	}
	return sum / float64(len(res.Tasks))
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
