package crt

import (
	"testing"

	"repro/internal/sim"
)

// TestUntracedDockerRunAllocations: with no tracer attached, a full
// `docker run --rm` of a present image allocates only the Container; no
// span label is built or formatted.
func TestUntracedDockerRunAllocations(t *testing.T) {
	f := newFixture(t)
	f.env.Go("main", func(p *sim.Proc) {
		if err := f.rt.PullImage(p, "matmul"); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := f.rt.DockerRun(p, "matmul", 0.01, 0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("%v allocations per untraced DockerRun, want at most 1", allocs)
		}
	})
	f.env.Run()
}

// TestExecSteadyStateZeroAlloc: a process running tasks in one started
// container with the blocking Exec allocates nothing per task when no
// tracer is attached.
func TestExecSteadyStateZeroAlloc(t *testing.T) {
	f := newFixture(t)
	f.env.Go("main", func(p *sim.Proc) {
		if err := f.rt.PullImage(p, "matmul"); err != nil {
			t.Fatal(err)
		}
		c, err := f.rt.create(p, nil, "matmul", 0.5)
		if err == nil {
			err = c.start(p, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := c.exec(p, nil, 0.01); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v allocations per untraced Exec, want 0", allocs)
		}
	})
	f.env.Run()
}
