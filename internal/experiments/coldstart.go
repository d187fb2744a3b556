package experiments

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/knative"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ColdStartResult compares a scale-from-zero invocation with a warm one —
// the 1.48 s annotation of Fig. 1 (each latency mean ± sample stddev over
// N seeded repetitions).
type ColdStartResult struct {
	ColdSecs float64
	ColdStd  float64
	WarmSecs float64
	WarmStd  float64
	// ColdNoImageSecs separates the image-staged cold start (the paper's
	// number) from a fully cold node that must pull the image first.
	ColdNoImageSecs float64
	ColdNoImageStd  float64
	N               int
}

// ColdStart measures the three latencies, averaged over o.Reps seeds.
func ColdStart(o Options) ColdStartResult {
	// Cell 0 stages the image on every node first; cell 1 pulls it cold.
	type coldRep struct{ cold, warm float64 }
	runs := sweep(o, []bool{true, false}, func(prePull bool, seed uint64) coldRep {
		cold, warm := coldStartOnce(seed, o, prePull)
		return coldRep{cold, warm}
	})
	var cw, ww, nw metrics.Welford
	for r, staged := range runs[0] {
		cw.Add(staged.cold)
		ww.Add(staged.warm)
		nw.Add(runs[1][r].cold)
	}
	return ColdStartResult{
		ColdSecs:        cw.Mean(),
		ColdStd:         cw.Std(),
		WarmSecs:        ww.Mean(),
		WarmStd:         ww.Std(),
		ColdNoImageSecs: nw.Mean(),
		ColdNoImageStd:  nw.Std(),
		N:               cw.N(),
	}
}

func coldStartOnce(seed uint64, o Options, prePull bool) (coldSecs, warmSecs float64) {
	s := core.NewStack(seed, o.Prm)
	s.RegisterTransformation(workload.MatmulTransformation, o.Prm.ImageLayersBytes[len(o.Prm.ImageLayersBytes)-1])
	s.Env.Go("main", func(p *sim.Proc) {
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
		coldSecs = (p.Now() - t0).Seconds()
		t0 = p.Now()
		if _, err := svc.Invoke(p, req); err != nil {
			panic(err)
		}
		warmSecs = (p.Now() - t0).Seconds()
		s.Shutdown()
	})
	s.Env.Run()
	return coldSecs, warmSecs
}

// WriteTable renders the comparison.
func (r ColdStartResult) WriteTable(w io.Writer) error {
	tbl := metrics.NewTable("path", "latency_s", "std_s", "n")
	tbl.AddRow("cold (image staged)", r.ColdSecs, r.ColdStd, r.N)
	tbl.AddRow("cold (image pull included)", r.ColdNoImageSecs, r.ColdNoImageStd, r.N)
	tbl.AddRow("warm (container reused)", r.WarmSecs, r.WarmStd, r.N)
	if err := tbl.Write(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "\npaper reference: 1.48s cold start (Fig. 1)\n")
	return err
}
