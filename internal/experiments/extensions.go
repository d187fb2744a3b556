package experiments

import (
	"fmt"
	"io"
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
// study (DataMovement), §IX-A complex workflows (Montage), §IX-C task
// resizing (Resizing), §IX-D task redirection (Redirection), and §II-C task
// clustering (Clustering). The isolation quantification lives in
// isolation.go. All are extensions beyond the paper's evaluated figures,
// reported separately in EXPERIMENTS.md.

// DataMovementRow compares one (mode, staging) combination. All means are
// over completed repetitions only (see Completion).
type DataMovementRow struct {
	Mode    wms.Mode
	Staging wms.DataStaging
	Completion
	// SubmitTxMB and SubmitRxMB are the bytes crossing the submit node's
	// interface; TotalMB is all data movement on the fabric — the
	// redundant-movement cost §VIII highlights shows up as total ≫ submit
	// traffic on the by-value serverless path (submit → wrapper → pod).
	SubmitTxMB float64
	SubmitRxMB float64
	TotalMB    float64
}

// DataMovementResult is the §VIII comparative communication study.
type DataMovementResult struct {
	Rows []DataMovementRow
}

// DataMovement runs a 10-task chain under every mode and staging strategy
// and accounts the traffic through the submit node.
func DataMovement(o Options) DataMovementResult {
	tasks := o.Prm.TasksPerWorkflow
	if o.Quick {
		tasks = 4
	}
	type dmCombo struct {
		mode    wms.Mode
		staging wms.DataStaging
	}
	combos := []dmCombo{
		{wms.ModeNative, wms.StageByValue},
		{wms.ModeNative, wms.StageSharedFS},
		{wms.ModeContainer, wms.StageByValue},
		{wms.ModeServerless, wms.StageByValue},
		{wms.ModeServerless, wms.StageSharedFS},
		{wms.ModeServerless, wms.StageObjectStore},
	}
	type dmRep struct {
		runOutcome
		submitTx, submitRx, tt float64
	}
	runs := sweep(o, combos, func(combo dmCombo, seed uint64) dmRep {
		s := core.NewStack(seed, o.Prm)
		s.RegisterTransformation(workload.MatmulTransformation, o.Prm.ImageLayersBytes[len(o.Prm.ImageLayersBytes)-1])
		s.Engine.Staging = combo.staging
		var rep dmRep
		s.Env.Go("main", func(p *sim.Proc) {
			defer s.Shutdown()
			if combo.mode == wms.ModeServerless {
				if err := s.DeployFunction(p, workload.MatmulTransformation, core.ReusePolicy()); err != nil {
					return // failed rep: counts against CompletionRate
				}
			}
			txBase := s.Cluster.Net.BytesSent(cluster.SubmitNodeName)
			rxBase := s.Cluster.Net.BytesReceived(cluster.SubmitNodeName)
			totalBase := s.Cluster.Net.TotalBytesSent()
			wf := workload.Chain("dm", tasks, o.Prm.MatrixBytes)
			result, err := s.Engine.RunWorkflow(p, wf, wms.AssignAll(combo.mode))
			if err != nil {
				return
			}
			rep.ok = true
			rep.makespan = result.Makespan().Seconds()
			rep.submitTx = float64(s.Cluster.Net.BytesSent(cluster.SubmitNodeName)-txBase) / 1e6
			rep.submitRx = float64(s.Cluster.Net.BytesReceived(cluster.SubmitNodeName)-rxBase) / 1e6
			rep.tt = float64(s.Cluster.Net.TotalBytesSent()-totalBase) / 1e6
		})
		s.Env.Run()
		return rep
	})
	var res DataMovementResult
	for ci, combo := range combos {
		var tx, rx, tt metrics.Welford
		for _, rep := range runs[ci] {
			if rep.ok {
				tx.Add(rep.submitTx)
				rx.Add(rep.submitRx)
				tt.Add(rep.tt)
			}
		}
		res.Rows = append(res.Rows, DataMovementRow{
			Mode:       combo.mode,
			Staging:    combo.staging,
			Completion: completion(runs[ci]),
			SubmitTxMB: tx.Mean(),
			SubmitRxMB: rx.Mean(),
			TotalMB:    tt.Mean(),
		})
	}
	return res
}

// WriteTable renders the communication study.
func (r DataMovementResult) WriteTable(w io.Writer) error {
	tbl := metrics.NewTable("mode", "staging", "makespan_s", "std_s", "submit_tx_MB", "submit_rx_MB", "total_MB", "n", "completion")
	for _, row := range r.Rows {
		tbl.AddRow(row.Mode.String(), row.Staging.String(), row.Makespan, row.MakespanStd, row.SubmitTxMB, row.SubmitRxMB, row.TotalMB, row.N, row.CompletionRate)
	}
	if err := tbl.Write(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "\nextension (§VIII future work): pass-by-value moves data submit → wrapper → function;\na shared filesystem removes the wrapper hop at the cost of an FS server on the submit node\n")
	return err
}

// ResizingRow is one split factor of the §IX-C study.
type ResizingRow struct {
	Split int
	Tasks int
	Completion
}

// ResizingResult is the task-resizing study.
type ResizingResult struct {
	Rows []ResizingRow
}

// Resizing runs a 5-stage chain of heavy logical tasks (16× the standard
// matmul) split into 1, 2, 4, and 8 serverless subtasks per stage.
func Resizing(o Options) ResizingResult {
	const (
		stages        = 5
		workScale     = 16
		splitOverhead = 0.04
	)
	splits := []int{1, 2, 4, 8}
	if o.Quick {
		splits = []int{1, 4}
	}
	runs := sweep(o, splits, func(split int, seed uint64) runOutcome {
		s := core.NewStack(seed, o.Prm)
		s.RegisterTransformation(workload.MatmulTransformation, o.Prm.ImageLayersBytes[len(o.Prm.ImageLayersBytes)-1])
		var rep runOutcome
		s.Env.Go("main", func(p *sim.Proc) {
			defer s.Shutdown()
			if err := s.DeployFunction(p, workload.MatmulTransformation, core.DefaultPolicy()); err != nil {
				return
			}
			wf := workload.SplitChain("rz", stages, split, o.Prm.MatrixBytes, workScale, splitOverhead)
			result, err := s.Engine.RunWorkflow(p, wf, wms.AssignAll(wms.ModeServerless))
			if err != nil {
				return
			}
			rep.ok = true
			rep.makespan = result.Makespan().Seconds()
		})
		s.Env.Run()
		return rep
	})
	var res ResizingResult
	for si, split := range splits {
		res.Rows = append(res.Rows, ResizingRow{Split: split, Tasks: stages * split, Completion: completion(runs[si])})
	}
	return res
}

// WriteTable renders the resizing study.
func (r ResizingResult) WriteTable(w io.Writer) error {
	tbl := metrics.NewTable("split", "tasks", "makespan_s", "std_s", "n", "completion")
	for _, row := range r.Rows {
		tbl.AddRow(row.Split, row.Tasks, row.Makespan, row.MakespanStd, row.N, row.CompletionRate)
	}
	if err := tbl.Write(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "\nextension (§IX-C future work): finer tasks parallelise each stage but pay\nper-subtask scheduling and invocation overhead\n")
	return err
}

// MontageRow is one execution mode of the complex-workflow study.
type MontageRow struct {
	Mode  wms.Mode
	Tasks int
	Completion
}

// MontageResult is the §IX-A study: the three execution environments on a
// realistic multi-transformation fan-out/fan-in workflow instead of the
// paper's simple chain.
type MontageResult struct {
	Rows []MontageRow
}

// mosaic is the Montage-like workflow every Montage-based study runs: 8
// tiles full-size, 4 quick.
func mosaic(quick bool) *wms.Workflow {
	tiles := 8
	if quick {
		tiles = 4
	}
	return workload.Montage("mosaic", tiles, 4<<20)
}

// Montage runs a Montage-like mosaic workflow (heterogeneous
// transformations, fan-out and joins) in all three modes, deploying every
// transformation's function automatically (§IX-B).
func Montage(o Options) MontageResult {
	modes := []wms.Mode{wms.ModeNative, wms.ModeServerless, wms.ModeContainer}
	type mtRep struct {
		runOutcome
		tasks int
	}
	runs := sweep(o, modes, func(mode wms.Mode, seed uint64) mtRep {
		s := core.NewStack(seed, o.Prm)
		var rep mtRep
		s.Env.Go("main", func(p *sim.Proc) {
			defer s.Shutdown()
			wf := mosaic(o.Quick)
			rep.tasks = wf.Len()
			if mode == wms.ModeServerless {
				if err := s.AutoIntegrate(p, wf, core.DefaultPolicy()); err != nil {
					return
				}
			} else {
				// Catalog registration only (no function deployment).
				for _, tr := range workload.MontageTransformations() {
					s.RegisterTransformation(tr, o.Prm.ImageLayersBytes[len(o.Prm.ImageLayersBytes)-1])
				}
			}
			result, err := s.Engine.RunWorkflow(p, wf, wms.AssignAll(mode))
			if err != nil {
				return
			}
			rep.ok = true
			rep.makespan = result.Makespan().Seconds()
		})
		s.Env.Run()
		return rep
	})
	var res MontageResult
	for mi, mode := range modes {
		row := MontageRow{Mode: mode, Completion: completion(runs[mi])}
		for _, rep := range runs[mi] {
			row.Tasks = rep.tasks
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// WriteTable renders the complex-workflow study.
func (r MontageResult) WriteTable(w io.Writer) error {
	tbl := metrics.NewTable("mode", "tasks", "makespan_s", "std_s", "n", "completion")
	for _, row := range r.Rows {
		tbl.AddRow(row.Mode.String(), row.Tasks, row.Makespan, row.MakespanStd, row.N, row.CompletionRate)
	}
	if err := tbl.Write(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "\nextension (§IX-A future work): a Montage-like mosaic workflow — heterogeneous\ntransformations, fan-out/fan-in — instead of the paper's simple chain; the\nexecution-mode ordering carries over\n")
	return err
}

// ClusteringRow is one cluster size of the task-clustering study.
type ClusteringRow struct {
	Label string
	Jobs  int
	Completion
}

// ClusteringResult is the §II-C task-clustering study: Pegasus's classic
// answer to per-job scheduling latency, compared with the serverless
// alternative the paper proposes.
type ClusteringResult struct {
	Rows []ClusteringRow
}

// Clustering runs a 10-task chain natively at several vertical cluster
// sizes and adds the unclustered serverless chain as a reference.
func Clustering(o Options) ClusteringResult {
	tasks := o.Prm.TasksPerWorkflow
	sizes := []int{1, 2, 5, 10}
	if o.Quick {
		tasks = 6
		sizes = []int{1, 3}
	}
	type clCfg struct {
		label       string
		mode        wms.Mode
		clusterSize int
	}
	var cfgs []clCfg
	for _, size := range sizes {
		cfgs = append(cfgs, clCfg{fmt.Sprintf("native, cluster=%d", size), wms.ModeNative, size})
	}
	cfgs = append(cfgs, clCfg{"serverless, unclustered", wms.ModeServerless, 1})
	type clRep struct {
		runOutcome
		jobs int
	}
	runs := sweep(o, cfgs, func(cfg clCfg, seed uint64) clRep {
		s := core.NewStack(seed, o.Prm)
		s.RegisterTransformation(workload.MatmulTransformation, o.Prm.ImageLayersBytes[len(o.Prm.ImageLayersBytes)-1])
		var rep clRep
		s.Env.Go("main", func(p *sim.Proc) {
			defer s.Shutdown()
			if cfg.mode == wms.ModeServerless {
				if err := s.DeployFunction(p, workload.MatmulTransformation, core.ReusePolicy()); err != nil {
					return
				}
			}
			wf := workload.Chain("cl", tasks, o.Prm.MatrixBytes)
			if cfg.clusterSize > 1 {
				var err error
				wf, err = wms.ClusterVertical(wf, cfg.clusterSize)
				if err != nil {
					panic(err) // malformed sweep configuration, not a run failure
				}
			}
			rep.jobs = wf.Len()
			result, err := s.Engine.RunWorkflow(p, wf, wms.AssignAll(cfg.mode))
			if err != nil {
				return
			}
			rep.ok = true
			rep.makespan = result.Makespan().Seconds()
		})
		s.Env.Run()
		return rep
	})
	var res ClusteringResult
	for ci, cfg := range cfgs {
		row := ClusteringRow{Label: cfg.label, Completion: completion(runs[ci])}
		for _, rep := range runs[ci] {
			row.Jobs = rep.jobs
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// WriteTable renders the clustering study.
func (r ClusteringResult) WriteTable(w io.Writer) error {
	tbl := metrics.NewTable("configuration", "condor_jobs", "makespan_s", "std_s", "n", "completion")
	for _, row := range r.Rows {
		tbl.AddRow(row.Label, row.Jobs, row.Makespan, row.MakespanStd, row.N, row.CompletionRate)
	}
	if err := tbl.Write(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "\nextension (§II-C): vertical clustering amortises per-job scheduling latency by\nrestructuring the workflow; serverless reuse attacks only the container cost and\nstill pays scheduling per task — the two optimisations are complementary\n")
	return err
}

// RedirectionRow is one routing policy under a node hotspot; statistics are
// over the pooled per-request latencies of all N samples (o.Reps runs).
type RedirectionRow struct {
	Policy  string
	MeanSec float64
	StdSec  float64
	P95Sec  float64
	N       int
}

// RedirectionResult is the §IX-D task-redirection study.
type RedirectionResult struct {
	Rows []RedirectionRow
}

// Redirection overloads one worker with background jobs and compares
// knative's default least-requests routing against node-load-aware routing.
func Redirection(o Options) RedirectionResult {
	requests := 30
	if o.Quick {
		requests = 12
	}
	type rdPolicy struct {
		name  string
		route knative.RoutePolicy
	}
	policies := []rdPolicy{
		{"least-requests", knative.RouteLeastRequests},
		{"least-node-load", knative.RouteLeastNodeLoad},
	}
	runs := sweep(o, policies, func(pol rdPolicy, seed uint64) []float64 {
		return redirectionOnce(seed, o, pol.route, requests)
	})
	var res RedirectionResult
	for pi, pol := range policies {
		// Pool every rep's latencies in rep order.
		var lats []float64
		for _, rep := range runs[pi] {
			lats = append(lats, rep...)
		}
		var w metrics.Welford
		for _, l := range lats {
			w.Add(l)
		}
		res.Rows = append(res.Rows, RedirectionRow{
			Policy:  pol.name,
			MeanSec: w.Mean(),
			StdSec:  w.Std(),
			P95Sec:  metrics.Percentile(lats, 95),
			N:       w.N(),
		})
	}
	return res
}

func redirectionOnce(seed uint64, o Options, route knative.RoutePolicy, requests int) []float64 {
	s := core.NewStack(seed, o.Prm)
	s.RegisterTransformation(workload.MatmulTransformation, o.Prm.ImageLayersBytes[len(o.Prm.ImageLayersBytes)-1])
	var lats []float64
	s.Env.Go("main", func(p *sim.Proc) {
		defer s.Shutdown()
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
			Routing:              route,
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
	s.Env.RunUntil(30 * time.Minute) // hogs never finish; bound the run
	return lats
}

// WriteTable renders the redirection study.
func (r RedirectionResult) WriteTable(w io.Writer) error {
	tbl := metrics.NewTable("routing", "mean_latency_s", "std_s", "p95_latency_s", "n")
	for _, row := range r.Rows {
		tbl.AddRow(row.Policy, row.MeanSec, row.StdSec, row.P95Sec, row.N)
	}
	if err := tbl.Write(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "\nextension (§IX-D future work): load-aware routing redirects invocations away\nfrom the overloaded worker at request time\n")
	return err
}
