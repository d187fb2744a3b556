package experiments

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
	"repro/internal/wms"
)

// TestDeterministicGoldenTrace extends the determinism suite from scalar
// makespans to full traces: two same-seed Montage runs must export
// byte-identical Chrome traces, clean and under a chaos schedule.
func TestDeterministicGoldenTrace(t *testing.T) {
	o := QuickOptions()
	capture := func(chaos bool) []byte {
		tc, err := traceOnce(o.Seed, o.Prm, traceCell{mode: wms.ModeServerless, chaos: chaos}, true)
		if err != nil {
			t.Fatal(err)
		}
		return tc.tracer.ChromeBytes()
	}
	tracetest.AssertSameTrace(t, capture(false), capture(false))
	tracetest.AssertSameTrace(t, capture(true), capture(true))

	// A different seed must give a different trace (same span structure is
	// possible but jittered timings make a collision implausible).
	tc2, err := traceOnce(o.Seed+17, o.Prm, traceCell{mode: wms.ModeServerless}, true)
	if err != nil {
		t.Fatal(err)
	}
	if string(capture(false)) == string(tc2.tracer.ChromeBytes()) {
		t.Error("different seeds produced identical traces")
	}
}

// TestTraceProtectedCapture asserts the overload-protection acceptance
// criterion for the trace study: the protected capture's run completes, its
// trace carries all three protection span families (admission sheds,
// breaker activity, hedge launches) for the analyzer to attribute, and the
// export is byte-deterministic.
func TestTraceProtectedCapture(t *testing.T) {
	o := QuickOptions()
	tc, err := traceOnce(o.Seed, o.Prm, traceCell{mode: wms.ModeServerless, protected: true}, true)
	if err != nil {
		t.Fatal(err)
	}
	shed, breaker, hedge := tc.protectionSpans()
	if shed == 0 || breaker == 0 || hedge == 0 {
		t.Errorf("protection spans shed=%d breaker=%d hedge=%d, want all > 0", shed, breaker, hedge)
	}
	if tc.path == nil || len(tc.path.Steps) == 0 {
		t.Fatal("protected capture has no critical path")
	}
	// Reconciliation must survive concurrency: hedge copies overlap their
	// primaries, and the analyzer counts exactly one chain per attempt.
	if tc.path.StageSum() != tc.path.Makespan {
		t.Errorf("protected capture: stage sum %v != makespan %v", tc.path.StageSum(), tc.path.Makespan)
	}
	tc2, err := traceOnce(o.Seed, o.Prm, traceCell{mode: wms.ModeServerless, protected: true}, true)
	if err != nil {
		t.Fatal(err)
	}
	tracetest.AssertSameTrace(t, tc.tracer.ChromeBytes(), tc2.tracer.ChromeBytes())
}

// TestTraceReconciliation asserts the acceptance criterion: for every
// execution mode, the critical path's per-stage sums equal the reported
// makespan exactly, and the workflow span matches the wms result.
func TestTraceReconciliation(t *testing.T) {
	o := QuickOptions()
	for _, mode := range []wms.Mode{wms.ModeNative, wms.ModeContainer, wms.ModeServerless} {
		tc, err := traceOnce(o.Seed, o.Prm, traceCell{mode: mode}, true)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		cp := tc.path
		if cp.StageSum() != cp.Makespan {
			t.Errorf("%s: stage sum %v != makespan %v", mode, cp.StageSum(), cp.Makespan)
		}
		if cp.Makespan != tc.result.Makespan() {
			t.Errorf("%s: trace makespan %v != wms result %v", mode, cp.Makespan, tc.result.Makespan())
		}
		if len(cp.Steps) == 0 {
			t.Errorf("%s: empty critical path", mode)
		}
		if other := cp.Stages[trace.StageOther]; other != 0 {
			t.Errorf("%s: unclassified stage time %v, want 0", mode, other)
		}
		if cp.Stages[trace.StageExec] == 0 {
			t.Errorf("%s: no exec time on the critical path", mode)
		}
	}
}

// TestChromeExportPinned pins the Chrome export of the quick captures to
// SHA-256 digests, so a change to the tracer or to any instrumented
// substrate that alters the exported bytes fails here, not only when two
// runs of one build disagree. A deliberate change to the trace must update
// the digests and say why.
func TestChromeExportPinned(t *testing.T) {
	o := QuickOptions()
	cases := []struct {
		name string
		run  func() (*traceCapture, error)
		want string
	}{
		{"serverless", func() (*traceCapture, error) {
			return traceOnce(o.Seed, o.Prm, traceCell{mode: wms.ModeServerless}, true)
		}, "69144da6b8dbc0fd4ed469ed420c324a0de4b7eddc19e9f1036e5639212d1a98"},
		{"serverless-chaos", func() (*traceCapture, error) {
			return traceOnce(o.Seed, o.Prm, traceCell{mode: wms.ModeServerless, chaos: true}, true)
		}, "d27ac7fab9bb18216620f6f3ec7e2fc364622f2a5690a72c7e496f95e8458dec"},
		{"protected", func() (*traceCapture, error) {
			return traceOnce(o.Seed, o.Prm, traceCell{mode: wms.ModeServerless, protected: true}, true)
		}, "6ef8cef3723cc86ff4e5f2d3a24454bbbf9af2c97dbd880271ced09e7d3a3650"},
		{"native", func() (*traceCapture, error) {
			return traceOnce(o.Seed, o.Prm, traceCell{mode: wms.ModeNative}, true)
		}, "2e6716d069bc898b3df4982ea69a98841a94f599cacd98761b662c38a93fe968"},
		{"container", func() (*traceCapture, error) {
			return traceOnce(o.Seed, o.Prm, traceCell{mode: wms.ModeContainer}, true)
		}, "894bcff72b1962ba7bf71ae6c401861f8ed044aeac738ae953737711c3221bc7"},
		{"serverless-trigger", func() (*traceCapture, error) {
			prm := o.Prm
			prm.ExecMode = "trigger"
			return traceOnce(o.Seed, prm, traceCell{mode: wms.ModeServerless}, true)
		}, "2cbc6e0e76275dbf470d643447f91132c34a7216cd61d97f81bb757d5cef8dc6"},
		{"serverless-object-store", func() (*traceCapture, error) {
			s := core.NewStack(o.Seed, o.Prm)
			s.Engine.Staging = wms.StageObjectStore
			tc, err := traceMontage(s, &traceCapture{traceCell: traceCell{mode: wms.ModeServerless}, tracer: trace.New(s.Env)}, true, core.DefaultPolicy())
			if err == nil {
				tracetest.MustFind(t, tc.tracer, tracetest.Match{Substrate: "storage", Name: "put"})
				tracetest.MustFind(t, tc.tracer, tracetest.Match{Substrate: "storage", Name: "get"})
			}
			return tc, err
		}, "b2f4993e340389f6b24eefcba4af94c020b67ada1d59310c192a8d0552ef189a"},
	}
	for _, c := range cases {
		tc, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(tc.tracer.ChromeBytes())); got != c.want {
			t.Errorf("%s: Chrome export sha256 = %s, want %s", c.name, got, c.want)
		}
	}
}
