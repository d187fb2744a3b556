package experiments

import (
	"strings"
	"testing"

	"repro/internal/config"
)

// chaosPrm is the configuration the chaos tests run under: a tight per-task
// retry budget so injected failures escalate into rescue-DAG recoveries.
func chaosPrm() config.Params {
	prm := config.Default()
	prm.TaskRetry.MaxAttempts = 2
	return prm
}

func TestChaosDeterminism(t *testing.T) {
	a := chaosOnce(1, chaosPrm(), 0.3, true, true)
	b := chaosOnce(1, chaosPrm(), 0.3, true, true)
	if a.trace != b.trace {
		t.Errorf("same seed produced different fault traces:\n%s\n---\n%s", a.trace, b.trace)
	}
	if a.ok != b.ok || a.makespan != b.makespan ||
		a.retries != b.retries || a.rescues != b.rescues || a.faultEvents != b.faultEvents {
		t.Errorf("same seed produced different metrics: %+v vs %+v", a, b)
	}
	c := chaosOnce(2, chaosPrm(), 0.3, true, true)
	if c.trace == a.trace {
		t.Error("different seeds produced identical fault traces")
	}
}

// TestChaosMontageSurvivesIncidents is the acceptance scenario: a Montage
// run under a node crash, a registry brownout, and transient job failures
// completes via layered retries and rescue-DAG recovery.
func TestChaosMontageSurvivesIncidents(t *testing.T) {
	// 10% transient failures with the default (generous) retry budget:
	// retries absorb everything.
	mild := chaosOnce(1, config.Default(), 0.1, true, true)
	if !mild.ok {
		t.Errorf("montage did not complete at 10%% fault rate:\n%s", mild.trace)
	}
	if mild.faultEvents < 4 {
		t.Errorf("fault events = %d; incident schedule not delivered", mild.faultEvents)
	}

	// 30% failures with a 2-attempt budget: tasks exhaust their budgets, so
	// completion requires rescue-DAG resumption.
	harsh := chaosOnce(1, chaosPrm(), 0.3, true, true)
	if !harsh.ok {
		t.Errorf("montage did not complete under harsh faults:\n%s", harsh.trace)
	}
	if harsh.retries < 1 {
		t.Error("no retries recorded under 30% fault injection")
	}
	if harsh.rescues < 1 {
		t.Error("no rescue-DAG recovery exercised under harsh faults")
	}
	for _, want := range []string{"node-crash", "registry-brownout", "job-failure"} {
		if !strings.Contains(harsh.trace, want) {
			t.Errorf("trace missing %s:\n%s", want, harsh.trace)
		}
	}
}

func TestChaosBaselineIsFaultFree(t *testing.T) {
	base := chaosOnce(1, config.Default(), 0, false, true)
	if !base.ok {
		t.Error("baseline run did not complete")
	}
	if base.faultEvents != 0 || base.trace != "" {
		t.Errorf("baseline recorded %d fault events:\n%s", base.faultEvents, base.trace)
	}
	// With incidents on, the same seed is slowed down, never sped up.
	incidents := chaosOnce(1, config.Default(), 0, true, true)
	if incidents.ok && incidents.makespan < base.makespan {
		t.Errorf("incident run (%.1fs) faster than fault-free baseline (%.1fs)",
			incidents.makespan, base.makespan)
	}
}

func TestChaosSweepTable(t *testing.T) {
	o := QuickOptions()
	o.Reps = 1
	rows := chaos.rows(o)
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want the baseline and 2 rates (quick sweep)", len(rows))
	}
	if baseline := rows[0].Makespan; baseline <= 0 {
		t.Errorf("baseline = %.1f", baseline)
	}
	if rows[1].Rate != 0 || rows[1].CompletionRate != 1 {
		t.Errorf("zero-rate row: %+v", rows[1])
	}
	var sb strings.Builder
	if err := chaos.tabulate(o, rows).write(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fault_rate", "completion", "inflation_pct", "rescues"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("table missing column %q:\n%s", want, sb.String())
		}
	}
}
