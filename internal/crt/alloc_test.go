package crt

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
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

// TestImportAllocatesNothing: an untraced image import, the container
// universe's per-task `docker load`, allocates nothing once the runtime's
// op list is warm.
func TestImportAllocatesNothing(t *testing.T) {
	f := newFixture(t)
	f.env.Go("main", func(p *sim.Proc) {
		resume := p.Resumer()
		allocs := testing.AllocsPerRun(100, func() {
			f.rt.ImportImageThen(nil, f.img, resume)
			p.Await()
		})
		if allocs != 0 {
			t.Errorf("%v allocations per untraced import, want 0", allocs)
		}
	})
	f.env.Run()
	if !f.rt.HasImage("matmul") {
		t.Error("import did not record the image")
	}
}

// TestTracedExecAllocatesOnlyItsSpan: a traced exec allocates what opening
// and ending its span does and nothing more; ending the span takes no
// closure.
func TestTracedExecAllocatesOnlyItsSpan(t *testing.T) {
	f := newFixture(t)
	trace.New(f.env)
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
		span := testing.AllocsPerRun(100, func() { c.span(nil, "exec").End() })
		exec := testing.AllocsPerRun(100, func() {
			if err := c.exec(p, nil, 0.01); err != nil {
				t.Fatal(err)
			}
		})
		if exec > span {
			t.Errorf("%v allocations per traced exec, want the %v of its span", exec, span)
		}
	})
	f.env.Run()
}
