package experiments

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/knative"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// coldRep is one run's latencies: the first, scale-from-zero invocation and
// the warm one after it.
type coldRep struct{ cold, warm float64 }

// coldCell folds one cell's latencies over its reps.
type coldCell struct{ cold, warm metrics.Welford }

// coldStartRow is one latency of the comparison (mean ± sample stddev over
// N seeded repetitions).
type coldStartRow struct {
	Path    string  `col:"path"`
	Latency float64 `col:"latency_s"`
	Std     float64 `col:"std_s"`
	N       int     `col:"n"`
}

// coldStart compares a scale-from-zero invocation with a warm one — the
// 1.48 s annotation of Fig. 1. Cell true stages the image on every node
// first (the paper's number); cell false is a fully cold node that must
// pull the image.
var coldStart = study[bool, coldRep, coldCell]{
	cells: func(Options) []bool { return []bool{true, false} },
	once:  coldStartOnce,
	fold: func(_ Options, _ bool, reps []coldRep) coldCell {
		var c coldCell
		for _, rep := range reps {
			c.cold.Add(rep.cold)
			c.warm.Add(rep.warm)
		}
		return c
	},
	report: func(_ Options, cells []coldCell) report {
		staged, pulled := cells[0], cells[1]
		n := staged.cold.N()
		return report{rows: []coldStartRow{
			{"cold (image staged)", staged.cold.Mean(), staged.cold.Std(), n},
			{"cold (image pull included)", pulled.cold.Mean(), pulled.cold.Std(), n},
			{"warm (container reused)", staged.warm.Mean(), staged.warm.Std(), n},
		}, note: "\npaper reference: 1.48s cold start (Fig. 1)\n"}
	},
}

func coldStartOnce(o Options, prePull bool, seed uint64) (rep coldRep) {
	s := core.NewStack(seed, o.Prm)
	s.RegisterTransformation(workload.MatmulTransformation, appLayer(o.Prm))
	runMain(s.Env, s, 0, func(p *sim.Proc) {
		policy := core.DeployPolicy{
			InitialScale:         0,
			ContainerConcurrency: 8,
			PrePullAllNodes:      prePull,
			CapCores:             1,
		}
		if err := s.DeployFunction(p, workload.MatmulTransformation, policy); err != nil {
			panic(err)
		}
		svc, _ := s.Service(workload.MatmulTransformation)
		req := knative.Request{From: cluster.SubmitNodeName, Work: 0}
		t0 := p.Now()
		if _, err := svc.Invoke(p, req); err != nil {
			panic(err)
		}
		rep.cold = (p.Now() - t0).Seconds()
		t0 = p.Now()
		if _, err := svc.Invoke(p, req); err != nil {
			panic(err)
		}
		rep.warm = (p.Now() - t0).Seconds()
	})
	return rep
}
