package fluid

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// TestUncappedCycleZeroAlloc: a steady-state arrival/departure cycle of an
// uncapped job must not allocate — the job pool, the recompute fast path
// (no caps, no floors: no sort, no scratch), the pre-bound completion
// callback, and the kernel's event free list together make the whole cycle
// free. This budget protects the fast path from silently regressing.
func TestUncappedCycleZeroAlloc(t *testing.T) {
	env := sim.NewEnv(1)
	srv := New(env, "cpu", 4)
	env.Go("loop", func(p *sim.Proc) {
		for {
			run(p, srv, 1, 0) // rate 4 alone: finishes in 250ms
		}
	})
	env.RunFor(5 * time.Second) // warm job pool, event free list, ring
	avg := testing.AllocsPerRun(100, func() {
		env.RunFor(250 * time.Millisecond)
	})
	if avg != 0 {
		t.Errorf("uncapped arrival/departure cycle allocates %.1f times, want 0", avg)
	}
	if srv.Load() != 1 {
		t.Fatalf("Load = %d mid-run, want 1", srv.Load())
	}
}

// TestUncappedChurnZeroAlloc: several concurrent uncapped jobs arriving and
// departing still hit the fast path and stay allocation-free once warm.
func TestUncappedChurnZeroAlloc(t *testing.T) {
	env := sim.NewEnv(1)
	srv := New(env, "cpu", 4)
	for i := 0; i < 4; i++ {
		env.Go("loop", func(p *sim.Proc) {
			for {
				run(p, srv, 1, 0)
			}
		})
	}
	env.RunFor(20 * time.Second)
	avg := testing.AllocsPerRun(100, func() {
		env.RunFor(time.Second)
	})
	if avg != 0 {
		t.Errorf("uncapped churn allocates %.1f times per second of virtual time, want 0", avg)
	}
}

// TestReservedCycleZeroAlloc: processes looping on RunReservedThen with
// caps and floors (the general water-filling path), each waiting with its
// resume, allocate nothing once warm: parking on the chained form adds no
// closure.
func TestReservedCycleZeroAlloc(t *testing.T) {
	env := sim.NewEnv(1)
	srv := New(env, "cpu", 4)
	for i := 0; i < 3; i++ {
		env.Go("loop", func(p *sim.Proc) {
			for {
				runReserved(p, srv, 1, 1, 0.5)
			}
		})
	}
	env.RunFor(20 * time.Second)
	avg := testing.AllocsPerRun(100, func() {
		env.RunFor(time.Second)
	})
	if avg != 0 {
		t.Errorf("reserved arrival/departure cycle allocates %.1f times per second of virtual time, want 0", avg)
	}
}
