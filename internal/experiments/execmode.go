package experiments

import (
	"fmt"

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
	// Full size: 256 chains of depth 40 → 10242 tasks on a 512-core cluster.
	return sized(quick, execModeSize{Width: 256, Depth: 40, Nodes: 32, Cores: 16},
		execModeSize{Width: 8, Depth: 3, Nodes: 3, Cores: 8})
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
	wf := workload.FanOutFanIn(sim.NewRNG(seed), "fan",
		size.Width, size.Depth, execModeFileBytes, workload.UniformScale(0.5, 1.5))
	var out ExecModeRun
	_, err := workflowRun{wf: wf, mode: wms.ModeNative, after: func(res *wms.RunResult) error {
		cp, err := trace.Analyze(tr, wf, "fan")
		if err != nil {
			return err
		}
		out.Tasks = len(res.Tasks)
		out.MakespanS = res.Makespan().Seconds()
		out.PollS = cp.Stages[trace.StagePoll].Seconds()
		for _, sp := range tr.Spans() {
			if sp.Name() == "release" {
				out.ReleaseSpans++
			}
		}
		return nil
	}}.on(s)
	if err != nil {
		panic(err)
	}
	return out
}

// execModeRow is one mode's scorecard over the repetitions.
type execModeRow struct {
	Mode config.ExecMode `col:"mode"`
	// P50S and P99S are makespan percentiles across reps, seconds.
	P50S         float64 `col:"p50_s"`
	P99S         float64 `col:"p99_s"`
	PollMeanS    float64 `col:"poll_s"`        // mean dagman-poll bucket, seconds
	PollElimPct  float64 `col:"poll_elim_pct"` // % of the poll mode's bucket eliminated
	ReleaseSpans float64 `col:"releases"`      // mean release markers per run
	tasks        int     // DAG size per run
}

// execMode replays the same seeded fan DAGs under every execution mode.
// Each (mode, rep) pair is an independent simulation fanned across the
// worker pool; results are identical at any worker count.
var execMode = study[config.ExecMode, ExecModeRun, execModeRow]{
	cells: func(Options) []config.ExecMode { return config.ExecModes() },
	once: func(o Options, mode config.ExecMode, seed uint64) ExecModeRun {
		return ExecModeOnce(seed, o.Prm, mode, o.Quick)
	},
	fold: func(_ Options, mode config.ExecMode, reps []ExecModeRun) execModeRow {
		makespans := make([]float64, 0, len(reps))
		var poll, rel metrics.Welford
		for _, run := range reps {
			makespans = append(makespans, run.MakespanS)
			poll.Add(run.PollS)
			rel.Add(float64(run.ReleaseSpans))
		}
		return execModeRow{
			Mode:         mode,
			P50S:         metrics.Percentile(makespans, 50),
			P99S:         metrics.Percentile(makespans, 99),
			PollMeanS:    poll.Mean(),
			ReleaseSpans: rel.Mean(),
			tasks:        reps[len(reps)-1].Tasks,
		}
	},
	report: func(o Options, rows []execModeRow) report {
		var pollBase float64
		for i, row := range rows {
			if row.Mode == config.ExecPoll {
				pollBase = row.PollMeanS
			}
			if pollBase > 0 {
				rows[i].PollElimPct = (1 - row.PollMeanS/pollBase) * 100
			}
		}
		return report{rows: rows, note: fmt.Sprintf("\nexecmode (release-path study): %d-task fan-out/fan-in DAG, %d seeded reps\nper mode; poll_s is the critical path's completion→observation lag, which\nthe decentralized and trigger modes eliminate by releasing successors at\ncompletion time instead of at the next DAGMan poll tick\n",
			rows[len(rows)-1].tasks, o.Reps)}
	},
}
