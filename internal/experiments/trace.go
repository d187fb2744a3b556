package experiments

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/trace"
	"repro/internal/wms"
)

// The trace experiment is not a paper figure: it runs the Montage workflow
// once per execution mode with the span tracer attached and reports where
// the critical path's time went — queue wait vs image pull vs container
// lifecycle vs cold start vs execution vs data staging. The per-stage sums
// reconcile exactly with the makespan, and the Chrome trace_event export is
// byte-identical across same-seed runs (the determinism suite asserts this).

// traceCell is one capture of the trace study.
type traceCell struct {
	mode wms.Mode
	// chaos runs a fixed incident schedule (registry brownout plus moderate
	// transient job/pull failure rates) that exercises the retry machinery,
	// so traces include multi-attempt tasks.
	chaos bool
	// protected is the overload-protection capture: serverless under
	// registry incidents with the full protection stack on.
	protected bool
}

// traceCapture is one traced Montage run.
type traceCapture struct {
	traceCell
	tracer *trace.Tracer
	path   *trace.CriticalPath
	result *wms.RunResult
}

// label names the capture in rendered output.
func (c *traceCapture) label() string {
	if c.protected {
		return c.mode.String() + "+protections"
	}
	return c.mode.String()
}

// protectionSpans counts the overload-protection spans in the capture:
// admission sheds, breaker transitions/fast-fails (knative and registry),
// and speculative hedge launches.
func (c *traceCapture) protectionSpans() (shed, breaker, hedge int) {
	for _, sp := range c.tracer.Spans() {
		switch sp.Name() {
		case "shed":
			shed++
		case "breaker":
			breaker++
		case "hedge":
			hedge++
		}
	}
	return
}

// traceOnce runs the Montage workflow once as the cell says, with span
// tracing attached, and returns the tracer, the critical-path analysis, and
// the run result.
//
// The protected capture runs serverless under a registry incident schedule
// with the full overload-protection stack enabled and a deliberately tight
// serving configuration (one replica, per-request concurrency, a two-seat
// activator waiting room), so the exported trace carries the protection
// spans the analyzer attributes degradation to: admission sheds on the tile
// fan-out, registry breaker transitions under injected pull errors, and
// speculative hedges for tasks stalled behind the brownout. Retry
// allowances are raised so the run still completes — the point is a trace
// of graceful degradation, not an abort.
func traceOnce(seed uint64, prm config.Params, c traceCell, quick bool) (*traceCapture, error) {
	policy := core.DefaultPolicy()
	if c.protected {
		prm.ActivatorQueueCap = 2
		prm.BreakerFailures = 2
		prm.BreakerOpenFor = 20 * time.Second
		prm.BreakerHalfOpenProbes = 1
		prm.RetryBudgetRatio = 0.5
		prm.RetryBudgetBurst = 20
		prm.HedgeAfter = 25 * time.Second
		prm.HedgeMax = 1
		prm.TaskRetry.MaxAttempts = 8
		// Scale-from-zero: image download is deferred to first invocation,
		// so the cold-start pulls run into the registry incidents and the
		// tile fan-out buffers in the bounded activator waiting room.
		policy = core.DeployPolicy{MaxScale: 1, ContainerConcurrency: 1, CapCores: 1}
	}
	s := core.NewStack(seed, prm)
	tr := trace.New(s.Env)
	switch {
	case c.protected:
		in := s.EnableFaults()
		in.Schedule(faults.Fault{Kind: faults.KindRegistryBrownout, At: 5 * time.Second, Duration: 90 * time.Second, Target: cluster.RegistryNodeName, Rate: 16})
		in.Schedule(faults.Fault{Kind: faults.KindRegistryError, At: 5 * time.Second, Duration: 40 * time.Second, Rate: 1})
	case c.chaos:
		in := s.EnableFaults()
		in.Schedule(faults.Fault{Kind: faults.KindRegistryBrownout, At: 30 * time.Second, Duration: 2 * time.Minute, Target: cluster.RegistryNodeName, Rate: 8})
		in.Schedule(faults.Fault{Kind: faults.KindJobFailure, At: 10 * time.Second, Duration: time.Hour, Rate: 0.1})
		in.Schedule(faults.Fault{Kind: faults.KindRegistryError, At: 10 * time.Second, Duration: time.Hour, Rate: 0.1})
	}
	return traceMontage(s, &traceCapture{traceCell: c, tracer: tr}, quick, policy)
}

// traceMontage runs Montage once on s in the capture's mode and analyzes
// its critical path. Serverless first deploys every transformation under
// policy; the other modes only register them.
func traceMontage(s *core.Stack, out *traceCapture, quick bool, policy core.DeployPolicy) (*traceCapture, error) {
	wf := mosaic(quick)
	res, err := workflowRun{wf: wf, mode: out.mode, policy: policy, after: func(*wms.RunResult) (err error) {
		out.path, err = trace.Analyze(out.tracer, wf, "mosaic")
		return err
	}}.on(s)
	if err != nil {
		return nil, err
	}
	out.result = res
	return out, nil
}

// traceStudy runs Montage once per execution mode (single run at the base
// seed — the point is one trace, not an average) and analyzes each critical
// path, plus a fourth protected capture that exercises the
// overload-protection stack under registry incidents. The captures are
// independent simulations, so they run on the pool; rows keep the fixed
// order regardless of which finishes first.
var traceStudy = study[traceCell, *traceCapture, *traceCapture]{
	cells: func(Options) []traceCell {
		return []traceCell{{mode: wms.ModeNative}, {mode: wms.ModeContainer}, {mode: wms.ModeServerless},
			{mode: wms.ModeServerless, protected: true}}
	},
	once: func(o Options, c traceCell, seed uint64) *traceCapture {
		tc, err := traceOnce(seed, o.Prm, c, o.Quick)
		if err != nil {
			panic(err)
		}
		return tc
	},
	fold:   first[traceCell, *traceCapture],
	oneRep: true,
	report: func(o Options, rows []*traceCapture) report {
		return report{render: func(w io.Writer) error { return writeTrace(w, rows, o.TraceOut) }}
	},
}

// writeTrace renders each mode's critical-path decomposition, the path step
// by step, and the reconciliation against the makespan. With a prefix set it
// first writes each capture's Chrome trace_event JSON to
// <prefix>-<label>.json.
func writeTrace(w io.Writer, captures []*traceCapture, prefix string) error {
	if prefix != "" {
		for _, c := range captures {
			path := fmt.Sprintf("%s-%s.json", prefix, c.label())
			if err := os.WriteFile(path, c.tracer.ChromeBytes(), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s (%d spans)\n", path, c.tracer.Len())
		}
	}
	for _, c := range captures {
		fmt.Fprintf(w, "-- mode %s: %d spans, critical path of %d steps --\n",
			c.label(), c.tracer.Len(), len(c.path.Steps))
		if err := c.path.Table().Write(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
		if err := c.path.StepsTable().Write(w); err != nil {
			return err
		}
		shed, breaker, hedge := c.protectionSpans()
		fmt.Fprintf(w, "protection spans: shed=%d breaker=%d hedge=%d\n", shed, breaker, hedge)
		fmt.Fprintf(w, "reconciliation: stage sum %.3f s, makespan %.3f s (wms result %.3f s)\n\n",
			c.path.StageSum().Seconds(), c.path.Makespan.Seconds(), c.result.Makespan().Seconds())
	}
	_, err := fmt.Fprintf(w, "critical-path accounting: per-stage self times over the longest dependency\nchain; idle is inter-step slack, dagman-poll is completion→observation lag,\nretry-wait is backoff between attempts; buckets sum to the makespan exactly;\nprotection spans count admission sheds, breaker activity, and hedge launches\n")
	return err
}
