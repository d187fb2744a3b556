// Command repro regenerates every figure and table of the paper's
// evaluation on the simulated testbed.
//
// Usage:
//
//	repro [flags] <target>
//
// A target is one experiment of the experiment table in internal/experiments,
// "all" for its paper group, or "ext" for its extension group; `repro -h`
// lists them all. An unknown target fails before anything runs, listing the
// valid ones.
//
// Flags:
//
//	-reps N    repetitions (seeds) averaged per number (default: paper setup)
//	-seed N    base random seed (default 1)
//	-quick     down-scaled sweeps for a fast smoke run
//	-workers N replication-runner pool size (0 = GOMAXPROCS, 1 = sequential)
//	-mode M    workflow execution mode: poll (default), decentralized, or
//	           trigger; unknown values fail fast listing the valid modes
//	-cpmode M  control-plane mode: baseline (default) or direct; unknown
//	           values fail fast listing the valid modes (the scale
//	           experiment always sweeps both)
//	-trace-out P  with the trace experiment: also write each capture's
//	           Chrome trace_event JSON to P-<mode>.json
//
// Results are identical at any -workers value: repetitions are isolated
// simulations fanned across the pool and merged back in repetition order.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/config"
	"repro/internal/experiments"
)

func main() {
	reps := flag.Int("reps", 0, "repetitions per reported number (0 = paper default)")
	seed := flag.Uint64("seed", 1, "base random seed")
	quick := flag.Bool("quick", false, "down-scaled sweeps")
	workers := flag.Int("workers", 0, "parallel replication workers (0 = GOMAXPROCS, 1 = sequential)")
	traceOut := flag.String("trace-out", "", "with the trace experiment: write Chrome trace_event JSON to <prefix>-<mode>.json")
	execMode := flag.String("mode", "", "workflow execution mode: poll (default), decentralized, or trigger")
	cpMode := flag.String("cpmode", "", "control-plane mode: baseline (default) or direct")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: repro [flags] {%s}\n", strings.Join(experiments.Targets(), "|"))
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	// Validate the modes up front: a typo must fail the run here, naming the
	// valid values, never fall back to the default path silently.
	if _, err := config.ParseExecMode(*execMode); err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(2)
	}
	if _, err := config.ParseCPMode(*cpMode); err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(2)
	}
	if *reps < 0 {
		fmt.Fprintf(os.Stderr, "repro: bad -reps %d: want 0 (the paper default) or more\n", *reps)
		os.Exit(2)
	}
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "repro: bad -workers %d: want 0 (GOMAXPROCS) or more\n", *workers)
		os.Exit(2)
	}
	exps, err := experiments.Select(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(1)
	}

	o := experiments.DefaultOptions()
	o.Seed = *seed
	o.Quick = *quick
	o.Prm.ExecMode = *execMode
	o.Prm.CPMode = *cpMode
	if *quick {
		o.Reps = 2
	}
	if *reps > 0 {
		o.Reps = *reps
	}
	o.Workers = *workers
	o.TraceOut = *traceOut

	for _, e := range exps {
		if err := experiments.WriteSection(os.Stdout, e, o); err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			os.Exit(1)
		}
	}
}
