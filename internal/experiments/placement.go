package experiments

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wms"
	"repro/internal/workload"
)

// The placement experiment sweeps the internal/sched policies over the
// Montage workflow. The serverless rows vary the kube scheduler's policy
// under a deliberately churny deployment (no pre-provisioned replicas, no
// pre-pull, one request per replica), so every scale-up is a fresh placement
// decision with an image pull at stake: image-locality placement follows
// images already on a node and cuts registry traffic versus the seed
// least-requested spreading. The native rows vary the condor negotiator's
// policy with scratch caching of shared-fs staging products enabled, so
// data-locality placement steers jobs to nodes that already hold their
// inputs and cuts shared-filesystem transfer time versus most-free-rr.

// PlacementRow is one (mode, policy) cell: makespan mean ± std, registry
// egress, and shared-fs staging-transfer time, averaged over completed reps.
type PlacementRow struct {
	Mode   wms.Mode
	Policy string
	Completion
	PulledMB float64
	StagingS float64
}

// PlacementResult is the placement-policy study.
type PlacementResult struct {
	Rows []PlacementRow
}

// Placement runs the policy sweep: four kube policies under serverless
// execution and two condor policies under native execution, shared-fs
// staging with scratch caching throughout.
func Placement(o Options) PlacementResult {
	type placementCfg struct {
		mode   wms.Mode
		policy string
	}
	cfgs := []placementCfg{
		{wms.ModeServerless, sched.PolicyLeastRequested},
		{wms.ModeServerless, sched.PolicyBinPack},
		{wms.ModeServerless, sched.PolicySpread},
		{wms.ModeServerless, sched.PolicyImageLocality},
		{wms.ModeNative, sched.PolicyMostFreeRR},
		{wms.ModeNative, sched.PolicyDataLocality},
	}
	type plRep struct {
		runOutcome
		pulledMB float64
		stagingS float64
	}
	runs := sweep(o, cfgs, func(cfg placementCfg, seed uint64) plRep {
		prm := o.Prm
		prm.ScratchCache = true
		if cfg.mode == wms.ModeServerless {
			prm.KubePlacementPolicy = cfg.policy
		} else {
			prm.CondorPlacementPolicy = cfg.policy
		}
		s := core.NewStack(seed, prm)
		tr := trace.New(s.Env)
		s.Engine.Staging = wms.StageSharedFS
		var rep plRep
		s.Env.Go("main", func(p *sim.Proc) {
			defer s.Shutdown()
			wf := mosaic(o.Quick)
			if cfg.mode == wms.ModeServerless {
				// Scale from zero, one request per replica: autoscaler churn
				// maximizes the number of placement decisions taken.
				pol := core.DeployPolicy{ContainerConcurrency: 1, CapCores: 1}
				if err := s.AutoIntegrate(p, wf, pol); err != nil {
					return
				}
			} else {
				for _, t := range workload.MontageTransformations() {
					s.RegisterTransformation(t, o.Prm.ImageLayersBytes[len(o.Prm.ImageLayersBytes)-1])
				}
			}
			result, err := s.Engine.RunWorkflow(p, wf, wms.AssignAll(cfg.mode))
			if err != nil {
				return
			}
			rep.ok = true
			rep.makespan = result.Makespan().Seconds()
		})
		s.Env.Run()
		rep.pulledMB = float64(s.Cluster.Net.BytesSent(cluster.RegistryNodeName)) / 1e6
		for _, sp := range tr.Spans() {
			if sp.Substrate() == "storage" {
				rep.stagingS += sp.Duration().Seconds()
			}
		}
		return rep
	})
	var res PlacementResult
	for ci, cfg := range cfgs {
		var pull, stage metrics.Welford
		for _, rep := range runs[ci] {
			if rep.ok {
				pull.Add(rep.pulledMB)
				stage.Add(rep.stagingS)
			}
		}
		res.Rows = append(res.Rows, PlacementRow{
			Mode:       cfg.mode,
			Policy:     cfg.policy,
			Completion: completion(runs[ci]),
			PulledMB:   pull.Mean(),
			StagingS:   stage.Mean(),
		})
	}
	return res
}

// WriteTable renders the placement-policy study.
func (r PlacementResult) WriteTable(w io.Writer) error {
	tbl := metrics.NewTable("mode", "policy", "makespan_s", "std_s", "pulled_MB", "staging_s", "n", "completion")
	for _, row := range r.Rows {
		tbl.AddRow(row.Mode.String(), row.Policy, row.Makespan, row.MakespanStd,
			row.PulledMB, row.StagingS, row.N, row.CompletionRate)
	}
	if err := tbl.Write(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "\nplacement-policy sweep (internal/sched) over Montage: serverless rows vary the\nkube scheduler (pulled_MB is registry egress — image-locality follows warm\nimages), native rows vary the condor negotiator with scratch-cached shared-fs\nstaging (staging_s is shared-fs transfer time — data-locality follows inputs)\n")
	return err
}
