package experiments

import (
	"fmt"
	"io"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wms"
	"repro/internal/workload"
)

// The execmode study measures what the execution-mode refactor buys: the
// same wide fan-out/fan-in DAG is run under each release path — the DAGMan
// poll loop, Wukong-style decentralized scheduling, and Triggerflow-style
// event-driven orchestration — and the critical path's dagman-poll bucket
// (completion → observation lag) is compared across modes. The poll loop
// pays up to one DAGManPoll per critical-path step; the event-driven modes
// release successors at (or milliseconds after) completion, eliminating the
// bucket.

// execModeFileBytes keeps dependency files down to manifests so the study
// measures release latency, not the submit node's uplink.
const execModeFileBytes = 4096

// execModeSize is the scale of one run.
type execModeSize struct {
	Width, Depth int
	Nodes, Cores int
}

func execModeSizeFor(quick bool) execModeSize {
	if quick {
		return execModeSize{Width: 8, Depth: 3, Nodes: 3, Cores: 8}
	}
	// 256 chains of depth 40 → 10242 tasks on a 512-core cluster.
	return execModeSize{Width: 256, Depth: 40, Nodes: 32, Cores: 16}
}

// ExecModeRun is one seeded run of the fan DAG under one execution mode.
type ExecModeRun struct {
	Tasks        int
	MakespanS    float64
	PollS        float64 // dagman-poll critical-path bucket, seconds
	ReleaseSpans int     // event-driven release markers in the trace
}

// ExecModeOnce runs the fan-out/fan-in DAG once under the given mode with
// tracing attached. The workflow is generated from the seed alone, so every
// mode replays the identical DAG (same topology, same per-task WorkScale
// draws) at a given rep.
func ExecModeOnce(seed uint64, base config.Params, mode config.ExecMode, quick bool) ExecModeRun {
	size := execModeSizeFor(quick)
	prm := base
	prm.WorkerNodes = size.Nodes
	prm.CoresPerNode = size.Cores
	prm.ExecMode = mode.String()

	s := core.NewStack(seed, prm)
	tr := trace.New(s.Env)
	var out ExecModeRun
	s.Env.Go("main", func(p *sim.Proc) {
		defer s.Shutdown()
		s.RegisterTransformation(workload.MatmulTransformation,
			prm.ImageLayersBytes[len(prm.ImageLayersBytes)-1])
		wf := workload.FanOutFanIn(sim.NewRNG(seed), "fan",
			size.Width, size.Depth, execModeFileBytes, workload.UniformScale(0.5, 1.5))
		res, err := s.Engine.RunWorkflow(p, wf, wms.AssignAll(wms.ModeNative))
		if err != nil {
			panic(err)
		}
		cp, err := trace.Analyze(tr, wf, "fan")
		if err != nil {
			panic(err)
		}
		out.Tasks = len(res.Tasks)
		out.MakespanS = res.Makespan().Seconds()
		out.PollS = cp.Stages[trace.StagePoll].Seconds()
		for _, sp := range tr.Spans() {
			if sp.Name() == "release" {
				out.ReleaseSpans++
			}
		}
	})
	s.Env.Run()
	return out
}

// ExecModeRow is one mode's scorecard over the repetitions.
type ExecModeRow struct {
	Mode         string
	P50S, P99S   float64 // makespan percentiles across reps, seconds
	PollMeanS    float64 // mean dagman-poll bucket, seconds
	PollElimPct  float64 // % of the poll mode's bucket eliminated
	ReleaseSpans float64 // mean release markers per run
}

// ExecModeResult is the release-path comparison.
type ExecModeResult struct {
	Tasks int // DAG size per run
	Reps  int
	Rows  []ExecModeRow
}

// ExecModeStudy replays the same seeded fan DAGs under every execution mode.
// Each (mode, rep) pair is an independent simulation fanned across the
// worker pool; results are identical at any worker count.
func ExecModeStudy(o Options) ExecModeResult {
	modes := config.ExecModes()
	runs := sweep(o, modes, func(mode config.ExecMode, seed uint64) ExecModeRun {
		return ExecModeOnce(seed, o.Prm, mode, o.Quick)
	})

	res := ExecModeResult{Reps: o.Reps}
	var pollBase float64
	for mi, mode := range modes {
		makespans := make([]float64, 0, o.Reps)
		var poll, rel metrics.Welford
		for _, run := range runs[mi] {
			res.Tasks = run.Tasks
			makespans = append(makespans, run.MakespanS)
			poll.Add(run.PollS)
			rel.Add(float64(run.ReleaseSpans))
		}
		row := ExecModeRow{
			Mode:         mode.String(),
			P50S:         metrics.Percentile(makespans, 50),
			P99S:         metrics.Percentile(makespans, 99),
			PollMeanS:    poll.Mean(),
			ReleaseSpans: rel.Mean(),
		}
		if mode == config.ExecPoll {
			pollBase = row.PollMeanS
		}
		if pollBase > 0 {
			row.PollElimPct = (1 - row.PollMeanS/pollBase) * 100
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// WriteTable renders the execution-mode comparison.
func (r ExecModeResult) WriteTable(w io.Writer) error {
	tbl := metrics.NewTable("mode", "p50_s", "p99_s", "poll_s", "poll_elim_pct", "releases")
	for _, row := range r.Rows {
		tbl.AddRow(row.Mode, row.P50S, row.P99S, row.PollMeanS, row.PollElimPct, row.ReleaseSpans)
	}
	if err := tbl.Write(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "\nexecmode (release-path study): %d-task fan-out/fan-in DAG, %d seeded reps\nper mode; poll_s is the critical path's completion→observation lag, which\nthe decentralized and trigger modes eliminate by releasing successors at\ncompletion time instead of at the next DAGMan poll tick\n",
		r.Tasks, r.Reps)
	return err
}
