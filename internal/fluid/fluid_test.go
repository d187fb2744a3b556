package fluid

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

// run and runReserved wait in a process on RunReservedThen: the process's
// resume is the continuation, then one park.
func run(p *sim.Proc, s *Server, work, maxRate float64) { runReserved(p, s, work, maxRate, 0) }

func runReserved(p *sim.Proc, s *Server, work, maxRate, floor float64) {
	s.RunReservedThen(work, maxRate, floor, p.Resumer())
	p.Await()
}

// servedSoFar is the total work the server has completed by now.
func (s *Server) servedSoFar() float64 {
	s.advance()
	return s.served
}

func TestSingleJobFullRate(t *testing.T) {
	env := sim.NewEnv(1)
	srv := New(env, "cpu", 2)
	var done time.Duration
	env.Go("job", func(p *sim.Proc) {
		run(p, srv, 6, 0) // 6 work units at rate 2
		done = p.Now()
	})
	env.Run()
	if done != 3*time.Second {
		t.Errorf("finished at %v, want 3s", done)
	}
}

func TestEqualSharing(t *testing.T) {
	env := sim.NewEnv(1)
	srv := New(env, "cpu", 1)
	var done [2]time.Duration
	for i := 0; i < 2; i++ {
		i := i
		env.Go("job", func(p *sim.Proc) {
			run(p, srv, 1, 0)
			done[i] = p.Now()
		})
	}
	env.Run()
	for i, d := range done {
		if d != 2*time.Second {
			t.Errorf("job %d finished at %v, want 2s (processor sharing)", i, d)
		}
	}
}

func TestLateArrivalSharing(t *testing.T) {
	// Classic PS: A (work 2) starts at 0, B (work 1) at t=1. From t=1 they
	// each run at 1/2, so both finish at t=3.
	env := sim.NewEnv(1)
	srv := New(env, "cpu", 1)
	var aDone, bDone time.Duration
	env.Go("a", func(p *sim.Proc) {
		run(p, srv, 2, 0)
		aDone = p.Now()
	})
	env.Go("b", func(p *sim.Proc) {
		p.Sleep(time.Second)
		run(p, srv, 1, 0)
		bDone = p.Now()
	})
	env.Run()
	if aDone != 3*time.Second {
		t.Errorf("a finished at %v, want 3s", aDone)
	}
	if bDone != 3*time.Second {
		t.Errorf("b finished at %v, want 3s", bDone)
	}
}

func TestCapIsolation(t *testing.T) {
	// Two capped jobs on a big server do not interfere: this is the cgroup
	// isolation property the paper trades performance against.
	env := sim.NewEnv(1)
	srv := New(env, "cpu", 8)
	var done [2]time.Duration
	for i := 0; i < 2; i++ {
		i := i
		env.Go("job", func(p *sim.Proc) {
			run(p, srv, 2, 1) // capped at one core
			done[i] = p.Now()
		})
	}
	env.Run()
	for i, d := range done {
		if d != 2*time.Second {
			t.Errorf("capped job %d finished at %v, want 2s", i, d)
		}
	}
}

func TestWaterFillingRedistribution(t *testing.T) {
	// Capacity 3: one job capped at 0.5, two uncapped. The uncapped pair
	// split the leftover 2.5 → 1.25 each. Work sizes chosen so all three
	// stay active long enough to observe the rates via finish times.
	env := sim.NewEnv(1)
	srv := New(env, "cpu", 3)
	var cappedDone, unc1Done time.Duration
	env.Go("capped", func(p *sim.Proc) {
		run(p, srv, 1, 0.5)
		cappedDone = p.Now()
	})
	env.Go("unc1", func(p *sim.Proc) {
		run(p, srv, 2.5, 0)
		unc1Done = p.Now()
	})
	env.Go("unc2", func(p *sim.Proc) {
		run(p, srv, 2.5, 0)
	})
	env.Run()
	if cappedDone != 2*time.Second {
		t.Errorf("capped finished at %v, want 2s (rate 0.5)", cappedDone)
	}
	// Uncapped: rate 1.25 while all three active (until t=2), then 1.5.
	// Remaining at t=2: 2.5-2.5=0 — they finish exactly at 2s too.
	if unc1Done != 2*time.Second {
		t.Errorf("uncapped finished at %v, want 2s (rate 1.25)", unc1Done)
	}
}

func TestContentionSlowdownVsIsolation(t *testing.T) {
	// 8 native (uncapped) jobs of 2 core-seconds on 4 cores: each gets 0.5
	// cores → 4s. The same jobs capped at 1 core less than fair share would
	// behave identically here, but 2 jobs on the same node finish in 1s
	// each when capped at 1 on an 8-core node regardless of a third noisy
	// neighbour.
	env := sim.NewEnv(1)
	srv := New(env, "cpu", 4)
	var last time.Duration
	for i := 0; i < 8; i++ {
		env.Go("native", func(p *sim.Proc) {
			run(p, srv, 2, 0)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	env.Run()
	if last != 4*time.Second {
		t.Errorf("8 uncapped 2-core-second jobs on 4 cores finished at %v, want 4s", last)
	}
}

func TestReservationShieldsFromNoisyNeighbours(t *testing.T) {
	// 16 uncapped hogs + one reserved 1-core job on an 8-core server: the
	// reserved job runs at its floor regardless of the storm.
	env := sim.NewEnv(1)
	srv := New(env, "cpu", 8)
	for i := 0; i < 16; i++ {
		env.Go("hog", func(p *sim.Proc) { run(p, srv, 1e5, 0) })
	}
	var done time.Duration
	env.Go("reserved", func(p *sim.Proc) {
		runReserved(p, srv, 2, 1, 1)
		done = p.Now()
	})
	env.RunUntil(time.Hour)
	if done != 2*time.Second {
		t.Errorf("reserved job finished at %v, want 2s (floor honoured)", done)
	}
}

func TestUnreservedJobSuffersUnderSameStorm(t *testing.T) {
	env := sim.NewEnv(1)
	srv := New(env, "cpu", 8)
	for i := 0; i < 16; i++ {
		env.Go("hog", func(p *sim.Proc) { run(p, srv, 1e5, 0) })
	}
	var done time.Duration
	env.Go("victim", func(p *sim.Proc) {
		run(p, srv, 2, 1) // capped but NOT reserved
		done = p.Now()
	})
	env.RunUntil(time.Hour)
	// Fair share ≈ 8/17 ≈ 0.47 cores → ≈ 4.25s.
	if done < 4*time.Second {
		t.Errorf("unreserved job finished at %v; expected noisy-neighbour slowdown", done)
	}
}

func TestOverReservedFloorsScaleProportionally(t *testing.T) {
	// 4 jobs each reserving 4 cores on an 8-core server: floors scale to 2.
	env := sim.NewEnv(1)
	srv := New(env, "cpu", 8)
	var done [4]time.Duration
	for i := 0; i < 4; i++ {
		i := i
		env.Go("job", func(p *sim.Proc) {
			runReserved(p, srv, 4, 4, 4)
			done[i] = p.Now()
		})
	}
	env.Run()
	for i, d := range done {
		if d != 2*time.Second {
			t.Errorf("job %d finished at %v, want 2s (floor scaled 4→2)", i, d)
		}
	}
}

func TestFloorClampedToCap(t *testing.T) {
	env := sim.NewEnv(1)
	srv := New(env, "cpu", 8)
	env.Go("job", func(p *sim.Proc) {
		runReserved(p, srv, 2, 1, 5) // floor above cap clamps to 1
		if p.Now() != 2*time.Second {
			t.Errorf("finished at %v, want 2s", p.Now())
		}
	})
	env.Run()
}

func TestReservedPlusSpareCapacity(t *testing.T) {
	// One reserved 1-core job alone on an 8-core server still only runs at
	// its cap, and an uncapped companion soaks up the rest.
	env := sim.NewEnv(1)
	srv := New(env, "cpu", 8)
	var reservedDone, freeDone time.Duration
	env.Go("reserved", func(p *sim.Proc) {
		runReserved(p, srv, 2, 1, 1)
		reservedDone = p.Now()
	})
	env.Go("free", func(p *sim.Proc) {
		run(p, srv, 14, 0) // rate 7 alongside the reserved job
		freeDone = p.Now()
	})
	env.Run()
	if reservedDone != 2*time.Second {
		t.Errorf("reserved finished at %v, want 2s", reservedDone)
	}
	if freeDone != 2*time.Second {
		t.Errorf("free finished at %v, want 2s (rate 7)", freeDone)
	}
}

func TestServedConservation(t *testing.T) {
	env := sim.NewEnv(1)
	srv := New(env, "cpu", 2)
	total := 0.0
	for i := 0; i < 5; i++ {
		w := float64(i + 1)
		total += w
		env.Go("job", func(p *sim.Proc) {
			p.Sleep(time.Duration(i) * 300 * time.Millisecond)
			run(p, srv, w, 0)
		})
	}
	env.Run()
	if math.Abs(srv.servedSoFar()-total) > 1e-3 {
		t.Errorf("Served = %f, want %f", srv.servedSoFar(), total)
	}
	if srv.Load() != 0 {
		t.Errorf("Load = %d after drain", srv.Load())
	}
}

func TestZeroWorkReturnsImmediately(t *testing.T) {
	env := sim.NewEnv(1)
	srv := New(env, "cpu", 1)
	env.Go("job", func(p *sim.Proc) {
		run(p, srv, 0, 0)
		if p.Now() != 0 {
			t.Errorf("zero work took %v", p.Now())
		}
	})
	env.Run()
}

// Property: with random job sets, every job's completion time is at least
// work/min(cap, capacity) (can't beat its best rate) and total served work
// is conserved.
func TestPropertyCompletionBounds(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		env := sim.NewEnv(seed)
		capTotal := 1 + rng.Float64()*7
		srv := New(env, "cpu", capTotal)
		n := 1 + rng.Intn(8)
		okAll := true
		sumWork := 0.0
		for i := 0; i < n; i++ {
			work := 0.1 + rng.Float64()*5
			var rateCap float64
			if rng.Float64() < 0.5 {
				rateCap = 0.1 + rng.Float64()*capTotal
			}
			arrive := time.Duration(rng.Float64() * float64(3*time.Second))
			sumWork += work
			env.Go("job", func(p *sim.Proc) {
				p.Sleep(arrive)
				start := p.Now()
				run(p, srv, work, rateCap)
				elapsed := (p.Now() - start).Seconds()
				best := capTotal
				if rateCap > 0 && rateCap < best {
					best = rateCap
				}
				if elapsed < work/best-1e-6 {
					okAll = false
				}
			})
		}
		env.Run()
		if math.Abs(srv.servedSoFar()-sumWork) > 1e-3 {
			return false
		}
		return okAll && env.Alive() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the fluid server is deterministic — identical seeds yield
// identical completion schedules.
func TestPropertyDeterminism(t *testing.T) {
	run := func(seed uint64) []time.Duration {
		rng := sim.NewRNG(seed)
		env := sim.NewEnv(seed)
		srv := New(env, "cpu", 4)
		n := 3 + rng.Intn(6)
		times := make([]time.Duration, n)
		for i := 0; i < n; i++ {
			i := i
			work := 0.5 + rng.Float64()*3
			arrive := time.Duration(rng.Float64() * float64(time.Second))
			env.Go("job", func(p *sim.Proc) {
				p.Sleep(arrive)
				run(p, srv, work, 0)
				times[i] = p.Now()
			})
		}
		env.Run()
		return times
	}
	f := func(seed uint64) bool {
		a, b := run(seed), run(seed)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRateReporting(t *testing.T) {
	env := sim.NewEnv(1)
	srv := New(env, "cpu", 4)
	env.Go("watcher", func(p *sim.Proc) {
		p.Sleep(500 * time.Millisecond)
		got := 0.0
		for _, j := range srv.jobs {
			got += j.rate
		}
		if math.Abs(got-3) > 1e-9 {
			t.Errorf("Rate = %f, want 3 (two jobs: cap 1 + uncapped 2... )", got)
		}
		if srv.Load() != 2 {
			t.Errorf("Load = %d, want 2", srv.Load())
		}
	})
	env.Go("capped", func(p *sim.Proc) { run(p, srv, 10, 1) })
	env.Go("uncapped", func(p *sim.Proc) { run(p, srv, 10, 2) })
	env.Run()
}

// TestRunReservedThenMatchesRunReserved: jobs submitted in chained form
// depart, and their continuations run, in the order and at the times the
// same jobs' waiting submitters resume — equal-time departures included,
// interleaved with a process sleeping beside them, and a zero-work job
// continuing at once.
func TestRunReservedThenMatchesRunReserved(t *testing.T) {
	type sub struct {
		name             string
		at               time.Duration
		work, cap, floor float64
	}
	subs := []sub{
		{"a", 0, 1, 0, 0},
		{"b", 0, 1, 0, 0}, // departs with a
		{"c", time.Second, 0.5, 0.5, 0},
		{"d", time.Second, 0, 0, 0},
		{"e", 1200 * time.Millisecond, 3, 2, 1},
		{"f", 1200 * time.Millisecond, 0.5, 0, 0.5},
	}
	run := func(chained bool) []string {
		env := sim.NewEnv(1)
		srv := New(env, "cpu", 2)
		var order []string
		note := func(name string) { order = append(order, name+"@"+env.Now().String()) }
		env.Go("ticker", func(p *sim.Proc) {
			for i := 0; i < 8; i++ {
				p.Sleep(500 * time.Millisecond)
				note("tick")
			}
		})
		for _, s := range subs {
			if chained {
				env.At(s.at, func() {
					env.Defer(func() {
						srv.RunReservedThen(s.work, s.cap, s.floor, func() { note(s.name) })
					})
				})
				continue
			}
			env.At(s.at, func() {
				env.Go(s.name, func(p *sim.Proc) {
					runReserved(p, srv, s.work, s.cap, s.floor)
					note(s.name)
				})
			})
		}
		env.Run()
		return order
	}
	procs, chain := run(false), run(true)
	if !slices.Equal(procs, chain) {
		t.Errorf("chained order %v, blocking order %v", chain, procs)
	}
}
