package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/knative"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/wms"
	"repro/internal/workload"
)

// The experiments in this file implement the paper's announced future work
// and §II mechanisms it does not evaluate: the §VIII communication-overhead
// study (dataMovement), §IX-A complex workflows (montage), §IX-C task
// resizing (resizing), §IX-D task redirection (redirection), and §II-C task
// clustering (clustering). The isolation quantification lives in
// isolation.go. All are extensions beyond the paper's evaluated figures,
// reported separately in EXPERIMENTS.md.

// dataMovementRow compares one (mode, staging) combination. All means are
// over completed repetitions only (see completion).
type dataMovementRow struct {
	Mode        wms.Mode        `col:"mode"`
	Staging     wms.DataStaging `col:"staging"`
	Makespan    float64         `col:"makespan_s"`
	MakespanStd float64         `col:"std_s"`
	// SubmitTxMB and SubmitRxMB are the bytes crossing the submit node's
	// interface; TotalMB is all data movement on the fabric — the
	// redundant-movement cost §VIII highlights shows up as total ≫ submit
	// traffic on the by-value serverless path (submit → wrapper → pod).
	SubmitTxMB     float64 `col:"submit_tx_MB"`
	SubmitRxMB     float64 `col:"submit_rx_MB"`
	TotalMB        float64 `col:"total_MB"`
	N              int     `col:"n"`
	CompletionRate float64 `col:"completion"`
}

type dmCell struct {
	mode    wms.Mode
	staging wms.DataStaging
}

type dmRep struct {
	runOutcome
	submitTx, submitRx, total float64
}

// dataMovement runs a 10-task chain under every mode and staging strategy
// and accounts the traffic through the submit node (the §VIII comparative
// communication study).
var dataMovement = study[dmCell, dmRep, dataMovementRow]{
	cells: func(Options) []dmCell {
		return []dmCell{
			{wms.ModeNative, wms.StageByValue},
			{wms.ModeNative, wms.StageSharedFS},
			{wms.ModeContainer, wms.StageByValue},
			{wms.ModeServerless, wms.StageByValue},
			{wms.ModeServerless, wms.StageSharedFS},
			{wms.ModeServerless, wms.StageObjectStore},
		}
	},
	once: func(o Options, c dmCell, seed uint64) (rep dmRep) {
		s := core.NewStack(seed, o.Prm)
		s.Engine.Staging = c.staging
		net := s.Cluster.Net
		var txBase, rxBase, totalBase int64
		rep.runOutcome = outcomeOf(workflowRun{
			wf:     workload.Chain("dm", sized(o.Quick, o.Prm.TasksPerWorkflow, 4), o.Prm.MatrixBytes),
			mode:   c.mode,
			policy: core.ReusePolicy(),
			before: func(*sim.Proc) {
				txBase = net.BytesSent(cluster.SubmitNodeName)
				rxBase = net.BytesReceived(cluster.SubmitNodeName)
				totalBase = net.TotalBytesSent()
			},
			after: func(*wms.RunResult) error {
				rep.submitTx = float64(net.BytesSent(cluster.SubmitNodeName)-txBase) / 1e6
				rep.submitRx = float64(net.BytesReceived(cluster.SubmitNodeName)-rxBase) / 1e6
				rep.total = float64(net.TotalBytesSent()-totalBase) / 1e6
				return nil
			},
		}.on(s))
		return rep
	},
	fold: func(_ Options, c dmCell, reps []dmRep) dataMovementRow {
		var tx, rx, tt metrics.Welford
		for _, rep := range reps {
			if rep.ok {
				tx.Add(rep.submitTx)
				rx.Add(rep.submitRx)
				tt.Add(rep.total)
			}
		}
		done := completionOf(reps)
		return dataMovementRow{c.mode, c.staging, done.Makespan, done.MakespanStd,
			tx.Mean(), rx.Mean(), tt.Mean(), done.N, done.CompletionRate}
	},
	note: "\nextension (§VIII future work): pass-by-value moves data submit → wrapper → function;\na shared filesystem removes the wrapper hop at the cost of an FS server on the submit node\n",
}

// resizingRow is one split factor of the §IX-C study.
type resizingRow struct {
	Split      int `col:"split"`
	Tasks      int `col:"tasks"`
	Completion completion
}

// resizing runs a 5-stage chain of heavy logical tasks (16× the standard
// matmul) split into 1, 2, 4, and 8 serverless subtasks per stage (the
// §IX-C task-resizing study).
var resizing = study[int, runOutcome, resizingRow]{
	cells: func(o Options) []int { return sized(o.Quick, []int{1, 2, 4, 8}, []int{1, 4}) },
	once: func(o Options, split int, seed uint64) runOutcome {
		return outcomeOf(workflowRun{
			wf:     workload.SplitChain("rz", resizeStages, split, o.Prm.MatrixBytes, resizeWorkScale, resizeSplitOverhead),
			mode:   wms.ModeServerless,
			policy: core.DefaultPolicy(),
		}.on(core.NewStack(seed, o.Prm)))
	},
	fold: func(_ Options, split int, reps []runOutcome) resizingRow {
		return resizingRow{split, resizeStages * split, completionOf(reps)}
	},
	note: "\nextension (§IX-C future work): finer tasks parallelise each stage but pay\nper-subtask scheduling and invocation overhead\n",
}

// The resizing study's chain: five stages of logical tasks 16× the standard
// matmul, each split paying a 4% overhead.
const (
	resizeStages        = 5
	resizeWorkScale     = 16
	resizeSplitOverhead = 0.04
)

// montageRow is one execution mode of the complex-workflow study.
type montageRow struct {
	Mode       wms.Mode `col:"mode"`
	Tasks      int      `col:"tasks"`
	Completion completion
}

// montage is the §IX-A study: the three execution environments on a
// realistic multi-transformation fan-out/fan-in workflow (heterogeneous
// transformations, fan-out and joins) instead of the paper's simple chain,
// deploying every transformation's function automatically (§IX-B).
var montage = study[wms.Mode, runOutcome, montageRow]{
	cells: func(Options) []wms.Mode {
		return []wms.Mode{wms.ModeNative, wms.ModeServerless, wms.ModeContainer}
	},
	once: func(o Options, mode wms.Mode, seed uint64) runOutcome {
		return outcomeOf(workflowRun{wf: mosaic(o.Quick), mode: mode, policy: core.DefaultPolicy()}.on(core.NewStack(seed, o.Prm)))
	},
	fold: func(o Options, mode wms.Mode, reps []runOutcome) montageRow {
		return montageRow{mode, mosaic(o.Quick).Len(), completionOf(reps)}
	},
	note: "\nextension (§IX-A future work): a Montage-like mosaic workflow — heterogeneous\ntransformations, fan-out/fan-in — instead of the paper's simple chain; the\nexecution-mode ordering carries over\n",
}

// clusteringRow is one cluster size of the task-clustering study.
type clusteringRow struct {
	Label      string `col:"configuration"`
	Jobs       int    `col:"condor_jobs"`
	Completion completion
}

type clCell struct {
	label string
	mode  wms.Mode
	wf    *wms.Workflow // shared read-only by every rep
}

// clustering is the §II-C task-clustering study: Pegasus's classic answer
// to per-job scheduling latency, compared with the serverless alternative
// the paper proposes. It runs a 10-task chain natively at several vertical
// cluster sizes and adds the unclustered serverless chain as a reference.
var clustering = study[clCell, runOutcome, clusteringRow]{
	cells: func(o Options) []clCell {
		chain := workload.Chain("cl", sized(o.Quick, o.Prm.TasksPerWorkflow, 6), o.Prm.MatrixBytes)
		var cells []clCell
		for _, size := range sized(o.Quick, []int{1, 2, 5, 10}, []int{1, 3}) {
			wf := chain
			if size > 1 {
				var err error
				if wf, err = wms.ClusterVertical(chain, size); err != nil {
					panic(err) // malformed sweep configuration, not a run failure
				}
			}
			cells = append(cells, clCell{fmt.Sprintf("native, cluster=%d", size), wms.ModeNative, wf})
		}
		return append(cells, clCell{"serverless, unclustered", wms.ModeServerless, chain})
	},
	once: func(o Options, c clCell, seed uint64) runOutcome {
		return outcomeOf(workflowRun{wf: c.wf, mode: c.mode, policy: core.ReusePolicy()}.on(core.NewStack(seed, o.Prm)))
	},
	fold: func(_ Options, c clCell, reps []runOutcome) clusteringRow {
		return clusteringRow{c.label, c.wf.Len(), completionOf(reps)}
	},
	note: "\nextension (§II-C): vertical clustering amortises per-job scheduling latency by\nrestructuring the workflow; serverless reuse attacks only the container cost and\nstill pays scheduling per task — the two optimisations are complementary\n",
}

// redirectionRow is one routing policy under a node hotspot; statistics are
// over the pooled per-request latencies of all N samples (o.Reps runs).
type redirectionRow struct {
	Policy  string  `col:"routing"`
	MeanSec float64 `col:"mean_latency_s"`
	StdSec  float64 `col:"std_s"`
	P95Sec  float64 `col:"p95_latency_s"`
	N       int     `col:"n"`
}

type rdPolicy struct {
	name  string
	route knative.RoutePolicy
}

// redirection overloads one worker with background jobs and compares
// knative's default least-requests routing against node-load-aware routing
// (the §IX-D task-redirection study).
var redirection = study[rdPolicy, []float64, redirectionRow]{
	cells: func(Options) []rdPolicy {
		return []rdPolicy{
			{"least-requests", knative.RouteLeastRequests},
			{"least-node-load", knative.RouteLeastNodeLoad},
		}
	},
	once: redirectionOnce,
	fold: func(_ Options, pol rdPolicy, reps [][]float64) redirectionRow {
		// Pool every rep's latencies in rep order.
		var lats []float64
		for _, rep := range reps {
			lats = append(lats, rep...)
		}
		var w metrics.Welford
		for _, l := range lats {
			w.Add(l)
		}
		return redirectionRow{pol.name, w.Mean(), w.Std(), metrics.Percentile(lats, 95), w.N()}
	},
	note: "\nextension (§IX-D future work): load-aware routing redirects invocations away\nfrom the overloaded worker at request time\n",
}

func redirectionOnce(o Options, pol rdPolicy, seed uint64) []float64 {
	requests := sized(o.Quick, 30, 12)
	s := core.NewStack(seed, o.Prm)
	s.RegisterTransformation(workload.MatmulTransformation, appLayer(o.Prm))
	var lats []float64
	// The hogs never finish; bound the run.
	runMain(s.Env, s, 30*time.Minute, func(p *sim.Proc) {
		// One replica per worker so the router has a real choice.
		tr, _ := s.Catalogs.Transformation(workload.MatmulTransformation)
		if err := s.PrePull(p, tr.Image); err != nil {
			panic(err)
		}
		svc, err := s.Knative.Deploy(p, knative.ServiceSpec{
			Name:                 workload.MatmulTransformation,
			Image:                tr.Image,
			ContainerConcurrency: 8,
			MinScale:             3,
			InitialScale:         3,
			MaxScale:             3,
			CPURequest:           1,
			MemMB:                512,
			CapCores:             1,
			AppInit:              o.Prm.ColdStartAppInit,
			Routing:              pol.route,
		})
		if err != nil {
			panic(err)
		}
		// Overload worker1: 16 containerized background jobs (another
		// tenant's burst), each reserving a core — the node's reservations
		// oversubscribe and every colocated task's share drops below one
		// core, including our function pod's.
		hogged := s.Cluster.Workers[0]
		for i := 0; i < 16; i++ {
			s.Env.Go("hog", func(hp *sim.Proc) {
				hogged.ExecReserved(hp, 1e6, 1, 1) // effectively forever
			})
		}
		p.Sleep(time.Second) // let the hog establish
		for i := 0; i < requests; i++ {
			t0 := p.Now()
			if _, err := svc.Invoke(p, knative.Request{
				From:       cluster.SubmitNodeName,
				PayloadIn:  2 * o.Prm.MatrixBytes,
				PayloadOut: o.Prm.MatrixBytes,
				Work:       o.Prm.TaskCoreSeconds,
			}); err != nil {
				panic(err)
			}
			lats = append(lats, (p.Now() - t0).Seconds())
			p.Sleep(500 * time.Millisecond)
		}
	})
	return lats
}
