package faults

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestScheduleDeliversWindowTransitions(t *testing.T) {
	env := sim.NewEnv(1)
	in := NewInjector(env)
	var got []string
	in.OnFault(KindNodeCrash, func(f Fault, begin bool) {
		got = append(got, fmt.Sprintf("%s %s %v @%v", f.Kind, f.Target, begin, env.Now()))
	})
	in.Schedule(Fault{Kind: KindNodeCrash, At: 10 * time.Second, Duration: 30 * time.Second, Target: "worker2"})
	env.Run()
	want := []string{
		"node-crash worker2 true @10s",
		"node-crash worker2 false @40s",
	}
	if len(got) != len(want) {
		t.Fatalf("deliveries = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("delivery %d = %q, want %q", i, got[i], want[i])
		}
	}
	if in.Events() != 2 {
		t.Errorf("events = %d, want 2", in.Events())
	}
}

func TestPointFaultHasNoEndTransition(t *testing.T) {
	env := sim.NewEnv(1)
	in := NewInjector(env)
	begins, ends := 0, 0
	in.OnFault(KindPodKill, func(f Fault, begin bool) {
		if begin {
			begins++
		} else {
			ends++
		}
	})
	in.Schedule(Fault{Kind: KindPodKill, At: 5 * time.Second, Target: "matmul"})
	env.Run()
	if begins != 1 || ends != 0 {
		t.Errorf("begins=%d ends=%d, want 1/0", begins, ends)
	}
}

func TestWindowActivatesAndClearsRate(t *testing.T) {
	env := sim.NewEnv(1)
	in := NewInjector(env)
	in.Schedule(Fault{Kind: KindJobFailure, At: time.Second, Duration: time.Second, Rate: 0.5})
	if in.rate(KindJobFailure, "worker1") != 0 {
		t.Error("rate active before window")
	}
	env.RunUntil(1500 * time.Millisecond)
	if got := in.rate(KindJobFailure, "worker1"); got != 0.5 {
		t.Errorf("rate inside window = %g, want 0.5", got)
	}
	env.Run()
	if got := in.rate(KindJobFailure, "worker1"); got != 0 {
		t.Errorf("rate after window = %g, want 0", got)
	}
}

func TestRatePrefersLargerOfTargetAndGlobal(t *testing.T) {
	env := sim.NewEnv(1)
	in := NewInjector(env)
	in.setRate(KindRegistryError, "", 0.1)
	in.setRate(KindRegistryError, "worker2", 0.6)
	if got := in.rate(KindRegistryError, "worker2"); got != 0.6 {
		t.Errorf("target rate = %g, want 0.6", got)
	}
	if got := in.rate(KindRegistryError, "worker1"); got != 0.1 {
		t.Errorf("global fallback = %g, want 0.1", got)
	}
	if got := in.rate(KindCreateFail, "worker1"); got != 0 {
		t.Errorf("other kind = %g, want 0", got)
	}
}

func TestRollRespectsProbabilityAndTracesFires(t *testing.T) {
	env := sim.NewEnv(42)
	in := NewInjector(env)

	// No rate active: never fires and draws no randomness.
	for i := 0; i < 100; i++ {
		if in.Roll(KindJobFailure, "worker1") {
			t.Fatal("fired with no active rate")
		}
	}
	if in.Events() != 0 {
		t.Errorf("events = %d before any rate", in.Events())
	}

	in.setRate(KindJobFailure, "", 1)
	if !in.Roll(KindJobFailure, "worker1") {
		t.Error("p=1 roll did not fire")
	}
	if !strings.Contains(in.Trace(), "fired p=1") {
		t.Errorf("trace missing fire record:\n%s", in.Trace())
	}

	in.setRate(KindJobFailure, "", 0.3)
	fired := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if in.Roll(KindJobFailure, "worker1") {
			fired++
		}
	}
	if f := float64(fired) / n; f < 0.25 || f > 0.35 {
		t.Errorf("empirical rate = %.3f, want ≈0.3", f)
	}
}

func TestTraceIsDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) string {
		env := sim.NewEnv(seed)
		in := NewInjector(env)
		in.Schedule(Fault{Kind: KindJobFailure, At: 0, Duration: time.Hour, Rate: 0.5})
		env.Go("roller", func(p *sim.Proc) {
			for i := 0; i < 50; i++ {
				p.Sleep(time.Second)
				in.Roll(KindJobFailure, "worker1")
			}
		})
		env.Run()
		return in.Trace()
	}
	a, b := run(7), run(7)
	if a != b {
		t.Errorf("same seed produced different traces:\n%s\n---\n%s", a, b)
	}
	if c := run(8); c == a {
		t.Error("different seeds produced identical traces")
	}
}

func TestTransientErrors(t *testing.T) {
	err := Transientf("injected %s", "fault")
	if err.Error() != "injected fault" {
		t.Errorf("msg = %q", err.Error())
	}
	if !IsTransient(err) {
		t.Error("Transientf error not transient")
	}
	if !IsTransient(fmt.Errorf("wrap: %w", err)) {
		t.Error("wrapped transient not detected")
	}
	if IsTransient(fmt.Errorf("plain error")) {
		t.Error("plain error reported transient")
	}
	if IsTransient(nil) {
		t.Error("nil reported transient")
	}
}
