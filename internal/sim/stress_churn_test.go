package sim_test

// Cross-package churn stress: fluid jobs riding the sim kernel while the
// server's capacity brownouts force recomputes, caps and floors flip jobs
// between the fast and general rate paths, and timers are cancelled
// mid-flight. This lives in an external test package so it can drive the
// kernel through the fluid model (sim cannot import fluid directly).
// Run it under -race: it is the widest exercise of the recycled-event heap,
// the run-queue ring, and the coroutine hand-off in the tree.

import (
	"testing"
	"time"

	"repro/internal/fluid"
	"repro/internal/sim"
)

func churnRun(t *testing.T, seed uint64) (fingerprint uint64, end time.Duration) {
	t.Helper()
	env := sim.NewEnv(seed)
	srv := fluid.New(env, "cpu", 8)
	wg := sim.NewWaitGroup(env)
	var fp uint64

	// Brownout driver: capacity steps through a deterministic sawtooth,
	// including a stretch at reduced capacity with floors still reserved.
	env.Go("brownout", func(p *sim.Proc) {
		caps := []float64{8, 3, 6, 1.5, 8, 4}
		for _, c := range caps {
			p.Sleep(150 * time.Millisecond)
			srv.SetCapacity(c)
			fp = fp*17 + uint64(srv.Load())
		}
	})

	// Workers mix capped, floored, and uncapped jobs so each brownout
	// crosses the fast-path/general-path boundary both ways, and spawn a
	// child generation mid-flight to churn the proc pool.
	for i := 0; i < 24; i++ {
		i := i
		wg.Add(1)
		env.Go("worker", func(p *sim.Proc) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				srv.RunReservedThen(0.4, 0, 0, p.Resumer()) // uncapped
				p.Await()
			case 1:
				srv.RunReservedThen(0.4, 0.5, 0, p.Resumer()) // capped
				p.Await()
			default:
				srv.RunReservedThen(0.4, 0, 0.2, p.Resumer()) // floored
				p.Await()
			}
			fp = fp*31 + uint64(p.Now())
			if i < 8 {
				wg.Add(1)
				env.Go("child", func(c *sim.Proc) {
					defer wg.Done()
					// Arm-and-cancel a timer while jobs are in flight so
					// cancelled events interleave with fluid's completion
					// timer in the heap.
					hit := false
					tm := env.After(75*time.Millisecond, func() { hit = true })
					c.Sleep(time.Duration(10+c.Rand().Intn(120)) * time.Millisecond)
					if tm.Stop() == hit {
						t.Errorf("Stop = %v with fired = %v", !hit, hit)
					}
					srv.RunReservedThen(0.2, 0, 0, c.Resumer())
					c.Await()
					fp = fp*131 + uint64(c.Now())
				})
			}
		})
	}
	end = env.Run()
	wgDone := srv.Load() == 0
	if !wgDone {
		t.Fatalf("server still loaded after Run: %d jobs", srv.Load())
	}
	_ = wg
	return fp, end
}

func TestStressFluidBrownoutChurn(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		fp1, end1 := churnRun(t, seed)
		fp2, end2 := churnRun(t, seed)
		if fp1 != fp2 || end1 != end2 {
			t.Errorf("seed %d diverged: fp %d vs %d, end %v vs %v", seed, fp1, fp2, end1, end2)
		}
		if end1 == 0 {
			t.Errorf("seed %d: simulation ended at t=0", seed)
		}
	}
}
