package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
)

// TestPlatformDrawsNoRandomness pins the layering: building the serving
// substrate leaves the env's random stream untouched, so a serving-only
// study sees the draws of a bare environment. The workflow layer does draw
// (condor.New forks the stream), which the last case checks so the test
// can tell a drawing builder from one that draws nothing.
func TestPlatformDrawsNoRandomness(t *testing.T) {
	budgeted := config.Default()
	budgeted.RetryBudgetRatio = 0.1
	budgeted.RetryBudgetBurst = 10
	budgeted.BreakerFailures = 3
	direct := config.Default()
	direct.CPMode = config.CPDirect.String()
	const seed = 7
	for name, prm := range map[string]config.Params{
		"default": config.Default(), "budgeted": budgeted, "direct": direct,
	} {
		if !sameDraws(NewPlatform(seed, prm).Env, sim.NewEnv(seed)) {
			t.Errorf("%s: NewPlatform drew from the env's random stream", name)
		}
	}
	if sameDraws(NewStack(seed, config.Default()).Env, sim.NewEnv(seed)) {
		t.Error("NewStack left the random stream untouched; the check cannot see a draw")
	}
}

// sameDraws reports whether the next draws of both envs' streams agree.
func sameDraws(a, b *sim.Env) bool {
	for i := 0; i < 4; i++ {
		if a.Rand().Uint64() != b.Rand().Uint64() {
			return false
		}
	}
	return true
}

// raceEnabled is set under -race, whose instrumentation adds an allocation
// to NewStack.
var raceEnabled bool

// TestNewStackAllocBudget bounds the objects a default-knob NewStack
// allocates: the Platform is embedded by value, so layering the stack on it
// costs no allocation of its own.
func TestNewStackAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const budget = 146
	prm := config.Default()
	if allocs := testing.AllocsPerRun(50, func() { NewStack(1, prm) }); allocs > budget {
		t.Errorf("NewStack allocates %v objects, budget %d", allocs, budget)
	}
}
