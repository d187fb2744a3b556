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
