package fluid_test

import (
	"fmt"

	"repro/internal/fluid"
	"repro/internal/sim"
)

// An 8-core node under processor sharing: an uncapped hog and a
// reserved one-core task coexist — the reservation is the cgroup isolation
// guarantee containers enjoy in the reproduction.
func Example() {
	env := sim.NewEnv(1)
	cpu := fluid.New(env, "cpu", 8)

	env.Go("hog", func(p *sim.Proc) {
		cpu.RunReservedThen(70, 0, 0, p.Resumer()) // uncapped: soaks up whatever is free
		p.Await()
		fmt.Println("hog finished at", p.Now())
	})
	env.Go("container", func(p *sim.Proc) {
		cpu.RunReservedThen(3, 1, 1, p.Resumer()) // one core, guaranteed
		p.Await()
		fmt.Println("container finished at", p.Now())
	})

	// The container runs at exactly 1 core for 3s; the hog gets the other
	// 7 cores while the container is active, then all 8.
	env.Run()

	// Output:
	// container finished at 3s
	// hog finished at 9.125s
}
