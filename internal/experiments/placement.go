package experiments

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/wms"
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

// placementRow is one (mode, policy) cell: makespan mean ± std, registry
// egress, and shared-fs staging-transfer time, averaged over completed reps.
type placementRow struct {
	Mode           wms.Mode `col:"mode"`
	Policy         string   `col:"policy"`
	Makespan       float64  `col:"makespan_s"`
	MakespanStd    float64  `col:"std_s"`
	PulledMB       float64  `col:"pulled_MB"`
	StagingS       float64  `col:"staging_s"`
	N              int      `col:"n"`
	CompletionRate float64  `col:"completion"`
}

type placementCell struct {
	mode   wms.Mode
	policy string
}

type placementRep struct {
	runOutcome
	pulledMB float64
	stagingS float64
}

// placement runs the policy sweep: four kube policies under serverless
// execution and two condor policies under native execution, shared-fs
// staging with scratch caching throughout.
var placement = study[placementCell, placementRep, placementRow]{
	cells: func(Options) []placementCell {
		return []placementCell{
			{wms.ModeServerless, sched.PolicyLeastRequested},
			{wms.ModeServerless, sched.PolicyBinPack},
			{wms.ModeServerless, sched.PolicySpread},
			{wms.ModeServerless, sched.PolicyImageLocality},
			{wms.ModeNative, sched.PolicyMostFreeRR},
			{wms.ModeNative, sched.PolicyDataLocality},
		}
	},
	once: func(o Options, c placementCell, seed uint64) placementRep {
		prm := o.Prm
		prm.ScratchCache = true
		if c.mode == wms.ModeServerless {
			prm.KubePlacementPolicy = c.policy
		} else {
			prm.CondorPlacementPolicy = c.policy
		}
		s := core.NewStack(seed, prm)
		tr := trace.New(s.Env)
		s.Engine.Staging = wms.StageSharedFS
		// Scale from zero, one request per replica: autoscaler churn
		// maximizes the number of placement decisions taken.
		rep := placementRep{runOutcome: outcomeOf(workflowRun{
			wf:     mosaic(o.Quick),
			mode:   c.mode,
			policy: core.DeployPolicy{ContainerConcurrency: 1, CapCores: 1},
		}.on(s))}
		rep.pulledMB = float64(s.Cluster.Net.BytesSent(cluster.RegistryNodeName)) / 1e6
		for _, sp := range tr.Spans() {
			if sp.Substrate() == "storage" {
				rep.stagingS += sp.Duration().Seconds()
			}
		}
		return rep
	},
	fold: func(_ Options, c placementCell, reps []placementRep) placementRow {
		var pull, stage metrics.Welford
		for _, rep := range reps {
			if rep.ok {
				pull.Add(rep.pulledMB)
				stage.Add(rep.stagingS)
			}
		}
		done := completionOf(reps)
		return placementRow{c.mode, c.policy, done.Makespan, done.MakespanStd,
			pull.Mean(), stage.Mean(), done.N, done.CompletionRate}
	},
	note: "\nplacement-policy sweep (internal/sched) over Montage: serverless rows vary the\nkube scheduler (pulled_MB is registry egress — image-locality follows warm\nimages), native rows vary the condor negotiator with scratch-cached shared-fs\nstaging (staging_s is shared-fs transfer time — data-locality follows inputs)\n",
}
