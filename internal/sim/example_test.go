package sim_test

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// A minimal simulation: a producer process hands work to a worker loop
// through the worker's queue on the virtual clock. The worker is the
// queue's handler: it takes one job at a time, and a job's wait ends in the
// step that resumes the drain.
func Example() {
	env := sim.NewEnv(1)
	var jobs *sim.Chan[string]
	var job string
	var work, done func()
	work = func() {
		if next, ok := jobs.Recv(); ok {
			job = next
			env.Delay(500*time.Millisecond, done)
		}
	}
	done = func() {
		fmt.Printf("%v %s done\n", env.Now(), job)
		work()
	}
	jobs = sim.NewUnbounded[string](env, work)
	env.Defer(work)

	env.Go("producer", func(p *sim.Proc) {
		for _, name := range []string{"stage-in", "compute", "stage-out"} {
			p.Sleep(time.Second)
			jobs.Send(name)
		}
		jobs.Close()
	})

	end := env.Run()
	fmt.Println("simulation ended at", end)
	// Output:
	// 1.5s stage-in done
	// 2.5s compute done
	// 3.5s stage-out done
	// simulation ended at 3.5s
}

// Futures resolve once and wake every waiter at the same virtual instant.
func ExampleFuture() {
	env := sim.NewEnv(1)
	ready := new(sim.Future[string])

	for i := 0; i < 2; i++ {
		i := i
		env.Go("waiter", func(p *sim.Proc) {
			v := ready.Get(p)
			fmt.Printf("waiter %d saw %q at %v\n", i, v, p.Now())
		})
	}
	env.Go("resolver", func(p *sim.Proc) {
		p.Sleep(2 * time.Second)
		ready.Set("pod-ready")
	})
	env.Run()
	// Output:
	// waiter 0 saw "pod-ready" at 2s
	// waiter 1 saw "pod-ready" at 2s
}

// A semaphore bounds concurrency: four 1-second jobs through two permits
// take two seconds.
func ExampleSemaphore() {
	env := sim.NewEnv(1)
	slots := sim.NewSemaphore(2)
	for i := 0; i < 4; i++ {
		env.Go("job", func(p *sim.Proc) {
			slots.AcquireThen(env, p.Resumer())
			p.Await()
			p.Sleep(time.Second)
			slots.Release()
		})
	}
	fmt.Println("makespan:", env.Run())
	// Output:
	// makespan: 2s
}
