package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/wms"
)

// The chaos experiment measures robustness rather than a paper figure: the
// Montage workflow runs in mixed execution mode under an escalating
// transient-failure rate while a fixed incident schedule plays out — one
// worker node crashes and reboots, and the registry suffers a bandwidth
// brownout during the cold-start window. Recovery is the framework's job:
// per-layer retries (pulls, invocations), workflow-level retry with backoff,
// and rescue-DAG resumption when a task exhausts its budget.

// chaosHorizon bounds one chaos run in virtual time; a run that hasn't
// finished by then counts as not completed.
const chaosHorizon = 6 * time.Hour

// chaosRun is one seeded chaos run's outcome. The workflow may complete via
// rescue-DAG recovery; its makespan then spans the rescues.
type chaosRun struct {
	runOutcome
	// retries counts attempts beyond each task's first, plus jobs
	// abandoned at aborts.
	retries int
	// rescues is how many rescue-DAG recoveries the run needed.
	rescues int
	// faultEvents is the injector's trace record count.
	faultEvents int
	// trace is the full fault trace (byte-identical across runs with the
	// same seed and rate).
	trace string
}

// chaosOnce executes one seeded chaos run at the given transient job-failure
// rate. The incident schedule is fixed: worker2 crashes at t=90s for 3
// minutes, and the registry browns out (bandwidth ÷8) from t=30s for 2
// minutes. rate 0 keeps the incident schedule but no probabilistic
// failures; scheduleIncidents=false gives a clean fault-free baseline.
func chaosOnce(seed uint64, prm config.Params, rate float64, scheduleIncidents bool, quick bool) chaosRun {
	s := core.NewStack(seed, prm)
	in := s.EnableFaults()

	if scheduleIncidents {
		in.Schedule(faults.Fault{Kind: faults.KindRegistryBrownout, At: 30 * time.Second, Duration: 2 * time.Minute, Target: cluster.RegistryNodeName, Rate: 8})
		in.Schedule(faults.Fault{Kind: faults.KindNodeCrash, At: 90 * time.Second, Duration: 3 * time.Minute, Target: "worker2"})
		if rate > 0 {
			in.Schedule(faults.Fault{Kind: faults.KindJobFailure, At: 10 * time.Second, Duration: chaosHorizon, Rate: rate})
			in.Schedule(faults.Fault{Kind: faults.KindRegistryError, At: 10 * time.Second, Duration: chaosHorizon, Rate: rate / 2})
		}
	}

	var out chaosRun
	runMain(s.Env, s, chaosHorizon, func(p *sim.Proc) {
		wf := mosaic(quick)
		// Cold policy: no pre-provisioned replicas and no pre-pull, so the
		// serverless tasks' first invocations pull through the (possibly
		// browned-out) registry.
		policy := core.DeployPolicy{ContainerConcurrency: 8, CapCores: 1}
		if err := s.AutoIntegrate(p, wf, policy); err != nil {
			panic(err)
		}
		assign := wms.AssignFractions(s.Env.Rand().Fork(), 0.4, 0.2, 0.4)
		res, stats, err := s.Engine.RunWorkflowWithRecovery(p, wf, assign, 3)
		out.rescues = stats.Rescues
		out.retries = stats.Abandoned
		if err != nil {
			return
		}
		for _, task := range res.Tasks {
			out.retries += task.Attempts - 1
		}
		out.runOutcome = runOutcome{true, res.Makespan().Seconds()}
	})
	out.faultEvents = in.Events()
	out.trace = in.Trace()
	return out
}

// chaosRow aggregates the repetitions at one failure rate. Counters that can
// accrue on runs which never finish (retries, fault events) are reported
// under both denominators explicitly — per attempted run and per completed
// run — instead of silently mixing them the way the first version of this
// sweep did (makespan over completed, retries over attempted).
type chaosRow struct {
	Rate           float64 `col:"fault_rate" fmt:"%.2f"`
	CompletionRate float64 `col:"completion"`
	N              int     `col:"n"`
	Makespan       float64 `col:"makespan_s"`
	MakespanStd    float64 `col:"makespan_std_s"`
	InflationPct   float64 `col:"inflation_pct"` // vs the fault-free baseline
	// MeanRetriesAttempted / MeanRetriesCompleted are the retry counter
	// averaged over all attempted runs and over completed runs only.
	MeanRetriesAttempted float64 `col:"retries/att"`
	MeanRetriesCompleted float64 `col:"retries/compl"`
	Rescues              int     `col:"rescues"` // total across reps
	// MeanFaultsAttempted / MeanFaultsCompleted are the injector's event
	// count under each denominator.
	MeanFaultsAttempted float64 `col:"faults/att"`
	MeanFaultsCompleted float64 `col:"faults/compl"`
}

// chaosCell is one sweep point; the fault-free baseline runs no incident
// schedule.
type chaosCell struct {
	rate      float64
	incidents bool
}

// chaos sweeps the transient-failure rate, reporting completion rate,
// makespan inflation over a fault-free baseline, retry counts (under both
// denominators), and rescue-DAG usage. The fault-free baseline and every
// (rate, rep) pair are independent seeded runs, so the whole study fans out
// across the pool at once.
var chaos = study[chaosCell, chaosRun, chaosRow]{
	cells: func(o Options) []chaosCell {
		rates := sized(o.Quick, []float64{0, 0.1, 0.25}, []float64{0, 0.25})
		// Cell 0 is the fault-free baseline; cell 1+i runs the incidents
		// at rates[i].
		cells := []chaosCell{{0, false}}
		for _, rate := range rates {
			cells = append(cells, chaosCell{rate, true})
		}
		return cells
	},
	once: func(o Options, c chaosCell, seed uint64) chaosRun {
		return chaosOnce(seed, o.Prm, c.rate, c.incidents, o.Quick)
	},
	fold: func(_ Options, c chaosCell, reps []chaosRun) chaosRow {
		done := completionOf(reps)
		row := chaosRow{Rate: c.rate, CompletionRate: done.CompletionRate, N: done.N,
			Makespan: done.Makespan, MakespanStd: done.MakespanStd}
		var retA, retC, fltA, fltC metrics.Welford
		for _, run := range reps {
			retA.Add(float64(run.retries))
			fltA.Add(float64(run.faultEvents))
			row.Rescues += run.rescues
			if run.ok {
				retC.Add(float64(run.retries))
				fltC.Add(float64(run.faultEvents))
			}
		}
		row.MeanRetriesAttempted = retA.Mean()
		row.MeanRetriesCompleted = retC.Mean()
		row.MeanFaultsAttempted = fltA.Mean()
		row.MeanFaultsCompleted = fltC.Mean()
		return row
	},
	report: func(_ Options, rows []chaosRow) report {
		baseline, rows := rows[0].Makespan, rows[1:]
		for i := range rows {
			if baseline > 0 && rows[i].N > 0 {
				rows[i].InflationPct = (rows[i].Makespan/baseline - 1) * 100
			}
		}
		return report{rows: rows, note: fmt.Sprintf("\nchaos (robustness): Montage in mixed mode under escalating transient-failure\nrates plus a fixed incident schedule (worker2 crash @90s for 3m, registry\nbrownout ÷8 @30s for 2m); recovery via layered retries and rescue-DAG\nresumption; baseline (fault-free) makespan %.1f s\n", baseline)}
	},
}
