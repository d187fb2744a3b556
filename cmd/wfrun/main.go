// Command wfrun executes a workflow through the full simulated stack
// (Pegasus-like planner + HTCondor + Kubernetes + Knative) and reports
// per-task provenance and makespans.
//
// Run a generated chain workload:
//
//	wfrun -chain 10 -workflows 10 -mode serverless
//	wfrun -chain 10 -mode mix:0.5,0,0.5
//
// Or a JSON spec (see internal/wms.Spec for the format):
//
//	wfrun -spec workflow.json
//
// Add -trace to print every recorded span before the report, one line per
// ended span in (start, ID) order: start time, substrate/operation,
// duration and labels.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wms"
	"repro/internal/workload"
)

func main() {
	err := run(os.Args[1:])
	if err == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "wfrun: %v\n", err)
	var bad flagError
	if errors.As(err, &bad) {
		os.Exit(2)
	}
	os.Exit(1)
}

// flagError is a bad flag value. The command exits 2 on it, as the flag
// package does on a malformed flag, before anything runs.
type flagError string

func (e flagError) Error() string { return string(e) }

func run(args []string) error {
	fs := flag.NewFlagSet("wfrun", flag.ExitOnError)
	var (
		specPath  = fs.String("spec", "", "JSON workflow spec (instead of -chain, -workflows and -mode)")
		chainLen  = fs.String("chain", "10", "generated chain length")
		workflows = fs.Int("workflows", 1, "concurrent copies of the workflow")
		modeFlag  = fs.String("mode", "native", "native | container | serverless | mix:N,C,S")
		seed      = fs.Uint64("seed", 1, "simulation seed")
		traced    = fs.Bool("trace", false, "print the recorded spans")
		fast      = fs.Bool("fast", false, "shrink condor latencies (quick demos)")
		provPath  = fs.String("provenance", "", "write JSON provenance of the first workflow to this file")
		htmlPath  = fs.String("html", "", "write an HTML Gantt timeline of the first workflow to this file")
		staging   = fs.String("staging", "by-value", "data staging: by-value | shared-fs | object-store")
	)
	fs.Parse(args) // ExitOnError: a malformed flag exits 2
	if *workflows < 1 {
		return flagError(fmt.Sprintf("bad -workflows %d: want at least 1", *workflows))
	}
	if *specPath != "" {
		// The spec is the whole workload: a flag that shapes a generated
		// one would be ignored.
		var ignored string
		fs.Visit(func(f *flag.Flag) {
			if ignored == "" && (f.Name == "chain" || f.Name == "workflows" || f.Name == "mode") {
				ignored = f.Name
			}
		})
		if ignored != "" {
			return flagError(fmt.Sprintf("-%s does not apply with -spec: the spec sets the workflow and its modes", ignored))
		}
	}

	prm := config.Default()
	if *fast {
		prm.NegotiationDelay = 2 * time.Second
		prm.DAGManPoll = time.Second
	}
	s := core.NewStack(*seed, prm)
	var tr *trace.Tracer
	if *traced {
		tr = trace.New(s.Env)
	}
	s.RegisterTransformation(workload.MatmulTransformation, prm.ImageLayersBytes[len(prm.ImageLayersBytes)-1])
	switch *staging {
	case "by-value":
	case "shared-fs":
		s.Engine.Staging = wms.StageSharedFS
	case "object-store":
		s.Engine.Staging = wms.StageObjectStore
	default:
		return flagError(fmt.Sprintf("unknown -staging %q", *staging))
	}

	// Resolve the workload.
	var wfs []*wms.Workflow
	var assign wms.ModeAssigner
	needsServerless := false
	if *specPath != "" {
		f, err := os.Open(*specPath)
		if err != nil {
			return err
		}
		spec, err := wms.LoadSpec(f)
		f.Close()
		if err != nil {
			return err
		}
		wf, specAssign, err := spec.Build()
		if err != nil {
			return err
		}
		for _, t := range spec.Tasks {
			if m, _ := wms.ParseMode(t.Mode); m == wms.ModeServerless || spec.DefaultMode == "serverless" {
				needsServerless = true
			}
		}
		// Every transformation in the spec must exist in the catalog.
		for _, id := range wf.TaskIDs() {
			task, _ := wf.Task(id)
			if _, ok := s.Catalogs.Transformation(task.Transformation); !ok {
				s.RegisterTransformation(task.Transformation, prm.ImageLayersBytes[len(prm.ImageLayersBytes)-1])
			}
		}
		wfs = []*wms.Workflow{wf}
		assign = specAssign
	} else {
		n, err := strconv.Atoi(*chainLen)
		if err != nil || n <= 0 {
			return flagError(fmt.Sprintf("bad -chain %q", *chainLen))
		}
		wfs = workload.ConcurrentChains(*workflows, n, prm.MatrixBytes)
		assign, needsServerless, err = parseModeFlag(*modeFlag, s.Env.Rand().Fork())
		if err != nil {
			return err
		}
	}

	var result *core.ConcurrentResult
	var runErr error
	s.Env.Go("main", func(p *sim.Proc) {
		defer s.Shutdown()
		if needsServerless {
			if err := s.DeployFunction(p, workload.MatmulTransformation, core.ReusePolicy()); err != nil {
				runErr = err
				return
			}
		}
		result, runErr = s.RunConcurrentWorkflows(p, wfs, assign)
	})
	s.Env.Run()
	if runErr != nil {
		return runErr
	}
	if tr != nil {
		printSpans(os.Stdout, tr)
	}

	// Report.
	tbl := metrics.NewTable("workflow", "makespan_s", "native", "container", "serverless")
	for _, run := range result.Runs {
		tbl.AddRow(run.Workflow, run.Makespan().Seconds(),
			run.ModeCount(wms.ModeNative), run.ModeCount(wms.ModeContainer), run.ModeCount(wms.ModeServerless))
	}
	if err := tbl.Write(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\nslowest makespan: %.1fs   mean: %.1fs\n",
		result.SlowestMakespan().Seconds(), result.MeanMakespan().Seconds())

	if *provPath != "" {
		f, err := os.Create(*provPath)
		if err != nil {
			return err
		}
		err = result.Runs[0].WriteProvenance(f, wfs[0])
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("\nprovenance written to %s\n", *provPath)
	}

	if *htmlPath != "" {
		f, err := os.Create(*htmlPath)
		if err != nil {
			return err
		}
		err = report.WriteHTML(f, result.Runs[0])
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("HTML timeline written to %s\n", *htmlPath)
	}

	if len(result.Runs) == 1 {
		run := result.Runs[0]
		fmt.Println()
		if err := report.Timeline(os.Stdout, run); err != nil {
			return err
		}
		fmt.Println()
		if err := report.Summary(os.Stdout, run); err != nil {
			return err
		}
		fmt.Println("\ncritical path:")
		if err := report.CriticalPath(os.Stdout, wfs[0], run); err != nil {
			return err
		}
	}
	return nil
}

// printSpans writes one line per ended span in (start, ID) order, then a
// blank line.
func printSpans(w io.Writer, tr *trace.Tracer) {
	for _, sp := range tr.Spans() {
		if !sp.Ended() {
			continue
		}
		fmt.Fprintf(w, "%12s  %-24s %12s", sp.Start().Truncate(time.Millisecond),
			sp.Substrate()+"/"+sp.Name(), sp.Duration().Truncate(time.Millisecond))
		for _, l := range sp.Labels() {
			fmt.Fprintf(w, " %s=%s", l.Key, l.Value)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// parseModeFlag understands "native", "container", "serverless", and
// "mix:N,C,S" triples of finite, non-negative weights, not all zero.
func parseModeFlag(s string, rng *sim.RNG) (wms.ModeAssigner, bool, error) {
	if rest, ok := strings.CutPrefix(s, "mix:"); ok {
		parts := strings.Split(rest, ",")
		if len(parts) != 3 {
			return nil, false, flagError(fmt.Sprintf("bad -mode %q: mix wants three weights", s))
		}
		var w [3]float64
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil || v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, false, flagError(fmt.Sprintf("bad -mode %q: weight %q is not a finite, non-negative number", s, p))
			}
			w[i] = v
		}
		if w[0]+w[1]+w[2] == 0 {
			return nil, false, flagError(fmt.Sprintf("bad -mode %q: every weight is zero", s))
		}
		return wms.AssignFractions(rng, w[0], w[1], w[2]), w[2] > 0, nil
	}
	m, err := wms.ParseMode(s)
	if err != nil {
		return nil, false, flagError(fmt.Sprintf("bad -mode: %v", err))
	}
	return wms.AssignAll(m), m == wms.ModeServerless, nil
}
