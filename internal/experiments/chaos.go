package experiments

import (
	"fmt"
	"io"
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

// ChaosRun is one seeded chaos run's outcome.
type ChaosRun struct {
	// Completed reports whether the workflow finished inside the horizon
	// (possibly via rescue-DAG recovery).
	Completed bool
	// MakespanSec is the workflow makespan (spanning rescues), valid only
	// when Completed.
	MakespanSec float64
	// Retries counts attempts beyond each task's first, plus jobs
	// abandoned at aborts.
	Retries int
	// Rescues is how many rescue-DAG recoveries the run needed.
	Rescues int
	// FaultEvents is the injector's trace record count.
	FaultEvents int
	// Trace is the full fault trace (byte-identical across runs with the
	// same seed and rate).
	Trace string
}

func (r ChaosRun) outcome() runOutcome { return runOutcome{r.Completed, r.MakespanSec} }

// ChaosOnce executes one seeded chaos run at the given transient job-failure
// rate. The incident schedule is fixed: worker2 crashes at t=90s for 3
// minutes, and the registry browns out (bandwidth ÷8) from t=30s for 2
// minutes. rate 0 keeps the incident schedule but no probabilistic
// failures; scheduleIncidents=false gives a clean fault-free baseline.
func ChaosOnce(seed uint64, prm config.Params, rate float64, scheduleIncidents bool, quick bool) ChaosRun {
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

	var out ChaosRun
	s.Env.Go("main", func(p *sim.Proc) {
		defer s.Shutdown()
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
		out.Rescues = stats.Rescues
		out.Retries = stats.Abandoned
		if err != nil {
			return
		}
		for _, task := range res.Tasks {
			out.Retries += task.Attempts - 1
		}
		out.Completed = true
		out.MakespanSec = res.Makespan().Seconds()
	})
	s.Env.RunUntil(chaosHorizon)
	out.FaultEvents = in.Events()
	out.Trace = in.Trace()
	return out
}

// ChaosRow aggregates the repetitions at one failure rate. Counters that can
// accrue on runs which never finish (retries, fault events) are reported
// under both denominators explicitly — per attempted run and per completed
// run — instead of silently mixing them the way the first version of this
// sweep did (makespan over completed, retries over attempted).
type ChaosRow struct {
	Rate      float64
	Attempted int
	Completion
	InflationPct float64 // vs the fault-free baseline
	// MeanRetriesAttempted / MeanRetriesCompleted are the retry counter
	// averaged over all attempted runs and over completed runs only.
	MeanRetriesAttempted float64
	MeanRetriesCompleted float64
	Rescues              int // total across reps
	// MeanFaultsAttempted / MeanFaultsCompleted are the injector's event
	// count under each denominator.
	MeanFaultsAttempted float64
	MeanFaultsCompleted float64
}

// ChaosResult is the escalating-fault-rate study.
type ChaosResult struct {
	// BaselineSec is the fault-free mean makespan the inflation column is
	// relative to.
	BaselineSec float64
	Rows        []ChaosRow
}

// Chaos sweeps the transient-failure rate, reporting completion rate,
// makespan inflation over a fault-free baseline, retry counts (under both
// denominators), and rescue-DAG usage. The fault-free baseline and every
// (rate, rep) pair are independent seeded runs, so the whole study fans out
// across the pool at once.
func Chaos(o Options) ChaosResult {
	rates := []float64{0, 0.1, 0.25}
	if o.Quick {
		rates = []float64{0, 0.25}
	}
	// Cell 0 is the fault-free baseline (no incident schedule); cell 1+i
	// runs the incidents at rates[i].
	type chaosCell struct {
		rate      float64
		incidents bool
	}
	cells := []chaosCell{{0, false}}
	for _, rate := range rates {
		cells = append(cells, chaosCell{rate, true})
	}
	runs := sweep(o, cells, func(c chaosCell, seed uint64) ChaosRun {
		return ChaosOnce(seed, o.Prm, c.rate, c.incidents, o.Quick)
	})

	res := ChaosResult{BaselineSec: completion(runs[0]).Makespan}
	for ri, rate := range rates {
		row := ChaosRow{Rate: rate, Attempted: len(runs[1+ri]), Completion: completion(runs[1+ri])}
		var retA, retC, fltA, fltC metrics.Welford
		for _, run := range runs[1+ri] {
			retA.Add(float64(run.Retries))
			fltA.Add(float64(run.FaultEvents))
			row.Rescues += run.Rescues
			if run.Completed {
				retC.Add(float64(run.Retries))
				fltC.Add(float64(run.FaultEvents))
			}
		}
		row.MeanRetriesAttempted = retA.Mean()
		row.MeanRetriesCompleted = retC.Mean()
		row.MeanFaultsAttempted = fltA.Mean()
		row.MeanFaultsCompleted = fltC.Mean()
		if res.BaselineSec > 0 && row.N > 0 {
			row.InflationPct = (row.Makespan/res.BaselineSec - 1) * 100
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// WriteTable renders the chaos study.
func (r ChaosResult) WriteTable(w io.Writer) error {
	tbl := metrics.NewTable("fault_rate", "completion", "n", "makespan_s", "makespan_std_s", "inflation_pct", "retries/att", "retries/compl", "rescues", "faults/att", "faults/compl")
	for _, row := range r.Rows {
		tbl.AddRow(fmt.Sprintf("%.2f", row.Rate), row.CompletionRate, row.N, row.Makespan, row.MakespanStd, row.InflationPct,
			row.MeanRetriesAttempted, row.MeanRetriesCompleted, row.Rescues, row.MeanFaultsAttempted, row.MeanFaultsCompleted)
	}
	if err := tbl.Write(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "\nchaos (robustness): Montage in mixed mode under escalating transient-failure\nrates plus a fixed incident schedule (worker2 crash @90s for 3m, registry\nbrownout ÷8 @30s for 2m); recovery via layered retries and rescue-DAG\nresumption; baseline (fault-free) makespan %.1f s\n", r.BaselineSec)
	return err
}
