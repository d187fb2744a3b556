package workload

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/wms"
)

// This file generates the wide fan-out/fan-in DAGs used to stress the
// engine's release path: one entry task fans out to `width` independent
// chains of `depth` tasks, which fan back into one exit task — width*depth+2
// tasks total. At widths in the hundreds to tens of thousands (10k–1M
// tasks) the poll-mode engine pays one DAGManPoll of release latency per
// chain step, which the decentralized and trigger execution modes eliminate;
// `repro execmode` measures exactly that gap.

// ScaleDist draws one task's WorkScale — the per-task duration distribution
// of a generated workflow. Implementations must consume the RNG
// deterministically (same seed, same sequence of draws, same workflow).
type ScaleDist func(rng *sim.RNG) float64

// UniformScale draws uniformly from [lo, hi).
func UniformScale(lo, hi float64) ScaleDist {
	return func(rng *sim.RNG) float64 { return lo + rng.Float64()*(hi-lo) }
}

// FanOutFanIn builds the wide fan-out/fan-in DAG: entry task "in" fans out
// to width chains of depth tasks each ("b<j>.s<i>"), all of which fan back
// into exit task "out". Every dependency carries a fileBytes-sized file.
// dist draws each chain task's WorkScale in branch-major order (branch 0
// stage 0..depth-1, then branch 1, ...), so a seeded RNG reproduces the
// workflow exactly; the entry and exit tasks use the default scale.
func FanOutFanIn(rng *sim.RNG, name string, width, depth int, fileBytes int64, dist ScaleDist) *wms.Workflow {
	if width < 1 || depth < 1 {
		panic("workload: fan-out width and depth must be >= 1")
	}
	if dist == nil {
		panic("workload: fan-out needs a ScaleDist")
	}
	wf := wms.NewWorkflow(name)
	add := func(t wms.TaskSpec) {
		if err := wf.AddTask(t); err != nil {
			panic("workload: " + err.Error())
		}
	}
	dep := func(parent, child string) {
		if err := wf.AddDependency(parent, child); err != nil {
			panic("workload: " + err.Error())
		}
	}

	fanFile := wms.FileSpec{LFN: name + "-fan.dat", Bytes: fileBytes}
	add(wms.TaskSpec{
		ID:             "in",
		Transformation: MatmulTransformation,
		Inputs:         []wms.FileSpec{{LFN: name + "-seed.dat", Bytes: fileBytes}},
		Outputs:        []wms.FileSpec{fanFile},
	})

	chainFile := func(j, i int) wms.FileSpec {
		return wms.FileSpec{LFN: fmt.Sprintf("%s-b%05d.s%04d.dat", name, j, i), Bytes: fileBytes}
	}
	tails := make([]wms.FileSpec, 0, width)
	for j := 0; j < width; j++ {
		for i := 0; i < depth; i++ {
			in := fanFile
			if i > 0 {
				in = chainFile(j, i-1)
			}
			id := fmt.Sprintf("b%05d.s%04d", j, i)
			add(wms.TaskSpec{
				ID:             id,
				Transformation: MatmulTransformation,
				WorkScale:      dist(rng),
				Inputs:         []wms.FileSpec{in},
				Outputs:        []wms.FileSpec{chainFile(j, i)},
			})
			if i == 0 {
				dep("in", id)
			} else {
				dep(fmt.Sprintf("b%05d.s%04d", j, i-1), id)
			}
		}
		tails = append(tails, chainFile(j, depth-1))
	}

	add(wms.TaskSpec{
		ID:             "out",
		Transformation: MatmulTransformation,
		Inputs:         tails,
		Outputs:        []wms.FileSpec{{LFN: name + "-out.dat", Bytes: fileBytes}},
	})
	for j := 0; j < width; j++ {
		dep(fmt.Sprintf("b%05d.s%04d", j, depth-1), "out")
	}
	return wf
}
