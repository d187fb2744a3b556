package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wms"
	"repro/internal/workload"
)

// The trace experiment is not a paper figure: it runs the Montage workflow
// once per execution mode with the span tracer attached and reports where
// the critical path's time went — queue wait vs image pull vs container
// lifecycle vs cold start vs execution vs data staging. The per-stage sums
// reconcile exactly with the makespan, and the Chrome trace_event export is
// byte-identical across same-seed runs (the determinism suite asserts this).

// TraceCapture is one traced Montage run.
type TraceCapture struct {
	Mode   wms.Mode
	Tracer *trace.Tracer
	Path   *trace.CriticalPath
	Result *wms.RunResult
	// Protected marks the overload-protection capture (serverless under
	// incidents with the full protection stack on).
	Protected bool
}

// Label names the capture in rendered output.
func (c *TraceCapture) Label() string {
	if c.Protected {
		return c.Mode.String() + "+protections"
	}
	return c.Mode.String()
}

// ProtectionSpans counts the overload-protection spans in the capture:
// admission sheds, breaker transitions/fast-fails (knative and registry),
// and speculative hedge launches.
func (c *TraceCapture) ProtectionSpans() (shed, breaker, hedge int) {
	for _, sp := range c.Tracer.Spans() {
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

// TraceOnce runs the Montage workflow once in the given mode with span
// tracing attached and returns the tracer, the critical-path analysis, and
// the run result. With chaos set, a fixed incident schedule (registry
// brownout plus moderate transient job/pull failure rates) exercises the
// retry machinery so traces include multi-attempt tasks.
func TraceOnce(seed uint64, prm config.Params, mode wms.Mode, quick, chaos bool) (*TraceCapture, error) {
	s := core.NewStack(seed, prm)
	tr := trace.New(s.Env)
	if chaos {
		in := s.EnableFaults()
		in.Schedule(faults.Fault{Kind: faults.KindRegistryBrownout, At: 30 * time.Second, Duration: 2 * time.Minute, Target: cluster.RegistryNodeName, Rate: 8})
		in.Schedule(faults.Fault{Kind: faults.KindJobFailure, At: 10 * time.Second, Duration: time.Hour, Rate: 0.1})
		in.Schedule(faults.Fault{Kind: faults.KindRegistryError, At: 10 * time.Second, Duration: time.Hour, Rate: 0.1})
	}
	return traceMontage(s, &TraceCapture{Mode: mode, Tracer: tr}, quick, core.DefaultPolicy())
}

// traceMontage runs Montage once on s in the capture's mode and analyzes
// its critical path. Serverless first deploys every transformation under
// policy; the other modes only register them.
func traceMontage(s *core.Stack, out *TraceCapture, quick bool, policy core.DeployPolicy) (*TraceCapture, error) {
	var runErr error
	s.Env.Go("main", func(p *sim.Proc) {
		defer s.Shutdown()
		runErr = func() error {
			wf := mosaic(quick)
			if out.Mode == wms.ModeServerless {
				if err := s.AutoIntegrate(p, wf, policy); err != nil {
					return err
				}
			} else {
				for _, t := range workload.MontageTransformations() {
					s.RegisterTransformation(t, s.Prm.ImageLayersBytes[len(s.Prm.ImageLayersBytes)-1])
				}
			}
			res, err := s.Engine.RunWorkflow(p, wf, wms.AssignAll(out.Mode))
			if err != nil {
				return err
			}
			out.Result = res
			out.Path, err = trace.Analyze(out.Tracer, wf, "mosaic")
			return err
		}()
	})
	s.Env.Run()
	if runErr != nil {
		return nil, runErr
	}
	return out, nil
}

// TraceProtectedOnce runs Montage in serverless mode under a registry
// incident schedule with the full overload-protection stack enabled and a
// deliberately tight serving configuration (one replica, per-request
// concurrency, a two-seat activator waiting room), so the exported trace
// carries the protection spans the analyzer attributes degradation to:
// admission sheds on the tile fan-out, registry breaker transitions under
// injected pull errors, and speculative hedges for tasks stalled behind the
// brownout. Retry allowances are raised so the run still completes — the
// point is a trace of graceful degradation, not an abort.
func TraceProtectedOnce(seed uint64, prm config.Params, quick bool) (*TraceCapture, error) {
	prm.ActivatorQueueCap = 2
	prm.BreakerFailures = 2
	prm.BreakerOpenFor = 20 * time.Second
	prm.BreakerHalfOpenProbes = 1
	prm.RetryBudgetRatio = 0.5
	prm.RetryBudgetBurst = 20
	prm.HedgeAfter = 25 * time.Second
	prm.HedgeMax = 1
	prm.TaskRetry.MaxAttempts = 8
	s := core.NewStack(seed, prm)
	tr := trace.New(s.Env)
	in := s.EnableFaults()
	in.Schedule(faults.Fault{Kind: faults.KindRegistryBrownout, At: 5 * time.Second, Duration: 90 * time.Second, Target: cluster.RegistryNodeName, Rate: 16})
	in.Schedule(faults.Fault{Kind: faults.KindRegistryError, At: 5 * time.Second, Duration: 40 * time.Second, Rate: 1})
	// Scale-from-zero: image download is deferred to first invocation, so
	// the cold-start pulls run into the registry incidents and the tile
	// fan-out buffers in the bounded activator waiting room.
	policy := core.DeployPolicy{MaxScale: 1, ContainerConcurrency: 1, CapCores: 1}
	return traceMontage(s, &TraceCapture{Mode: wms.ModeServerless, Tracer: tr, Protected: true}, quick, policy)
}

// TraceResult is the per-mode traced-run study.
type TraceResult struct {
	Rows []*TraceCapture
}

// Trace runs Montage once per execution mode (single run at the base seed —
// the point is one trace, not an average) and analyzes each critical path,
// plus a fourth protected capture that exercises the overload-protection
// stack under registry incidents. The captures are independent simulations,
// so they run on the pool; rows keep the fixed order regardless of which
// finishes first.
func Trace(o Options) TraceResult {
	modes := []wms.Mode{wms.ModeNative, wms.ModeContainer, wms.ModeServerless}
	rows := parallel.Run(len(modes)+1, o.Workers, func(i int) *TraceCapture {
		var tc *TraceCapture
		var err error
		if i < len(modes) {
			tc, err = TraceOnce(o.Seed, o.Prm, modes[i], o.Quick, false)
		} else {
			tc, err = TraceProtectedOnce(o.Seed, o.Prm, o.Quick)
		}
		if err != nil {
			panic(err)
		}
		return tc
	})
	return TraceResult{Rows: rows}
}

// WriteTable renders each mode's critical-path decomposition, the path step
// by step, and the reconciliation against the makespan.
func (r TraceResult) WriteTable(w io.Writer) error {
	for _, c := range r.Rows {
		fmt.Fprintf(w, "-- mode %s: %d spans, critical path of %d steps --\n",
			c.Label(), c.Tracer.Len(), len(c.Path.Steps))
		if err := c.Path.Table().Write(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
		if err := c.Path.StepsTable().Write(w); err != nil {
			return err
		}
		shed, breaker, hedge := c.ProtectionSpans()
		fmt.Fprintf(w, "protection spans: shed=%d breaker=%d hedge=%d\n", shed, breaker, hedge)
		fmt.Fprintf(w, "reconciliation: stage sum %.3f s, makespan %.3f s (wms result %.3f s)\n\n",
			c.Path.StageSum().Seconds(), c.Path.Makespan.Seconds(), c.Result.Makespan().Seconds())
	}
	_, err := fmt.Fprintf(w, "critical-path accounting: per-stage self times over the longest dependency\nchain; idle is inter-step slack, dagman-poll is completion→observation lag,\nretry-wait is backoff between attempts; buckets sum to the makespan exactly;\nprotection spans count admission sheds, breaker activity, and hedge launches\n")
	return err
}
