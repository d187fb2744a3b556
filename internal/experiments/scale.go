package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/kube"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/sim"
)

// The scale study reproduces the shape of Kubedirect's scale-pods /
// scale-nodes microbenchmarks on the modelled control plane: waves of pod
// placements pack clusters of increasing size to capacity, under the
// store-mediated baseline and the direct fast path, with identical cost
// constants. Reported per cell: placement latency percentiles (pod
// creation → ready, including scheduling, control-plane propagation, and
// container bring-up) and sustained bindings/s over the placement windows.
// The sweep totals >1M placements at full size. Every cell is a
// deterministic single simulation (no randomness anywhere on the path), so
// the study needs no seeded repetitions and is worker-count invariant.

// scaleNodeCounts returns the cluster sizes swept.
func scaleNodeCounts(quick bool) []int { return sized(quick, []int{512, 2048, 4096}, []int{16, 32}) }

// scalePlacements is the pod-placement count per cell: 2 modes × 3 node
// counts × 170k ≈ 1.02M placements at full size.
func scalePlacements(quick bool) int { return sized(quick, 170_000, 600) }

// scaleParams is the sweep's control-plane calibration, shared by both
// modes — only CPMode differs between the arms. The apiserver sustains 500
// serialized requests/s (1/QPS = 2ms occupancy) plus 1ms processing; store
// commits cost 5ms; watch propagation 20ms — the component-communication
// overheads "Understanding Open Source Serverless Platforms" measures. The
// scheduler core decides every 500µs (2000 pods/s offered), so the
// baseline's placement path is apiserver-bound while the direct path is
// scheduler-bound.
func scaleParams(base config.Params, mode config.CPMode, nodes int) config.Params {
	prm := base
	prm.WorkerNodes = nodes
	prm.CPMode = mode.String()
	prm.SchedulerLatency = 500 * time.Microsecond
	prm.APIServerQPS = 500
	prm.APIServerLatency = time.Millisecond
	prm.EtcdCommitLatency = 5 * time.Millisecond
	prm.WatchLatency = 20 * time.Millisecond
	prm.SchedSamplePercent = 10 // percentage-of-nodes-to-score, floor 100
	return prm
}

// ScaleRun is one (mode, nodes) cell of the sweep.
type ScaleRun struct {
	Mode       string  `col:"mode"`
	Nodes      int     `col:"nodes"`
	Placements int     `col:"placements"`
	P50Ms      float64 `col:"p50_ms"`      // placement latency p50, milliseconds
	P99Ms      float64 `col:"p99_ms"`      // placement latency p99, milliseconds
	BindsPerS  float64 `col:"binds_per_s"` // sustained placements/s over the placement windows
	QMaxMs     float64 `col:"qmax_ms"`     // worst single apiserver queue wait, milliseconds
}

// ScaleOnce runs one cell: waves of one-core pods pack the cluster to its
// CPU capacity, wait until every pod is ready, then churn (delete and
// drain) before the next wave — Kubedirect's scale-pods pattern. Placement
// latency is per pod (CreatePod → Ready); the drain phases are excluded
// from the bindings/s window but their deletion traffic still loads the
// same apiserver queue the next wave's binds use.
func ScaleOnce(base config.Params, mode config.CPMode, nodes, placements int) ScaleRun {
	prm := scaleParams(base, mode, nodes)
	pl := core.NewPlatform(1, prm)
	k := pl.Kube
	// A 2-byte image: the study measures the control plane, not pulls.
	pl.Registry.Push(registry.NewImage("fn", []int64{1}, 1))

	out := ScaleRun{Mode: mode.String(), Nodes: nodes}
	latencies := make([]float64, 0, placements)
	var window time.Duration
	runMain(pl.Env, &pl, 0, func(p *sim.Proc) {
		if err := pl.PrePull(p, "fn"); err != nil {
			panic(err)
		}
		waveSize := nodes * prm.CoresPerNode
		for placed := 0; placed < placements; {
			n := waveSize
			if rest := placements - placed; rest < n {
				n = rest
			}
			start := p.Now()
			pods := make([]*kube.Pod, 0, n)
			for i := 0; i < n; i++ {
				pod, err := k.CreatePod(kube.PodSpec{
					Name:       fmt.Sprintf("fn-%d", placed+i),
					Image:      "fn",
					CPURequest: 1,
					MemMB:      64,
				})
				if err != nil {
					panic(err)
				}
				pods = append(pods, pod)
			}
			for _, pod := range pods {
				if err := k.WaitReady(p, pod); err != nil {
					panic(err)
				}
				latencies = append(latencies, float64(pod.ReadyAt()-pod.CreatedAt())/float64(time.Millisecond))
			}
			window += p.Now() - start
			placed += n
			for _, pod := range pods {
				k.DeletePod(pod.Spec.Name)
			}
			for !drained(pl.Cluster) {
				p.Sleep(250 * time.Millisecond)
			}
		}
	})
	out.Placements = len(latencies)
	out.P50Ms = metrics.Percentile(latencies, 50)
	out.P99Ms = metrics.Percentile(latencies, 99)
	if window > 0 {
		out.BindsPerS = float64(out.Placements) / window.Seconds()
	}
	out.QMaxMs = float64(k.ControlPlane().Stats().MaxQueueWait) / float64(time.Millisecond)
	return out
}

// drained reports whether every node released its pod memory — the wave's
// churn (including the store-mediated deletion writes) has fully landed.
func drained(cl *cluster.Cluster) bool {
	for _, w := range cl.Workers {
		if w.MemUsedMB() != 0 {
			return false
		}
	}
	return true
}

type scaleCell struct {
	mode  config.CPMode
	nodes int
}

// scale sweeps both control-plane modes across the node counts. Cells are
// independent deterministic simulations fanned across the worker pool;
// results are identical at any worker count.
var scale = study[scaleCell, ScaleRun, ScaleRun]{
	cells: func(o Options) []scaleCell {
		var cells []scaleCell
		for _, mode := range config.CPModes() {
			for _, n := range scaleNodeCounts(o.Quick) {
				cells = append(cells, scaleCell{mode, n})
			}
		}
		return cells
	},
	once: func(o Options, c scaleCell, _ uint64) ScaleRun {
		return ScaleOnce(o.Prm, c.mode, c.nodes, scalePlacements(o.Quick))
	},
	fold:   first[scaleCell, ScaleRun],
	oneRep: true,
	report: func(_ Options, rows []ScaleRun) report {
		total, speedup, largest := scaleSummary(rows)
		return report{rows: rows, note: fmt.Sprintf("\nscale (control-plane study): %d pod placements total in full-pack waves;\nplacement latency = pod create → ready. Both modes share the same cost\nconstants; baseline routes bindings, status updates, and deletions through\nthe apiserver queue + store commit + watch propagation, direct passes them\ncomponent-to-component (async store reconciliation). Direct cuts placement\np99 %.1fx at %d nodes.\n",
			total, speedup, largest)}
	},
}

// scaleSummary returns the placement count across all cells (>1M at full
// size) and the baseline p99 over the direct p99 at the largest node count.
func scaleSummary(rows []ScaleRun) (total int, p99Speedup float64, largest int) {
	for _, r := range rows {
		total += r.Placements
		largest = max(largest, r.Nodes)
	}
	p99 := map[string]float64{}
	for _, r := range rows {
		if r.Nodes == largest {
			p99[r.Mode] = r.P99Ms
		}
	}
	if direct := p99[config.CPDirect.String()]; direct > 0 {
		p99Speedup = p99[config.CPStore.String()] / direct
	}
	return total, p99Speedup, largest
}
