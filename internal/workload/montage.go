package workload

import (
	"fmt"

	"repro/internal/wms"
)

// Montage builds a Montage-like astronomy mosaic workflow — the §IX-A
// "more complex and dynamic scientific workflow" the paper defers to future
// work. The DAG follows the classic Montage shape over `tiles` input
// images:
//
//	mProject × tiles          reproject each input image        (fan-out)
//	mDiffFit × (tiles-1)      fit differences of neighbours     (pairwise)
//	mConcatFit × 1            concatenate the fit coefficients  (join)
//	mBgModel  × 1             solve the background model        (sequential)
//	mBackground × tiles       apply corrections per image       (fan-out)
//	mAdd      × 1             co-add into the mosaic            (join)
//
// Transformations differ in service demand (WorkScale) and data sizes, so
// the workflow exercises heterogeneous tasks, fan-out/fan-in structure, and
// multi-transformation deployment (AutoIntegrate).
func Montage(name string, tiles int, imageBytes int64) *wms.Workflow {
	if tiles < 2 {
		panic("workload: montage needs at least 2 tiles")
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
	raw := func(i int) wms.FileSpec {
		return wms.FileSpec{LFN: fmt.Sprintf("%s-raw%03d.fits", name, i), Bytes: imageBytes}
	}
	proj := func(i int) wms.FileSpec {
		return wms.FileSpec{LFN: fmt.Sprintf("%s-proj%03d.fits", name, i), Bytes: imageBytes}
	}
	diff := func(i int) wms.FileSpec {
		return wms.FileSpec{LFN: fmt.Sprintf("%s-diff%03d.tbl", name, i), Bytes: imageBytes / 64}
	}
	corr := func(i int) wms.FileSpec {
		return wms.FileSpec{LFN: fmt.Sprintf("%s-corr%03d.fits", name, i), Bytes: imageBytes}
	}

	// mProject: one reprojection per tile.
	for i := 0; i < tiles; i++ {
		add(wms.TaskSpec{
			ID:             fmt.Sprintf("project%03d", i),
			Transformation: "mProject",
			WorkScale:      2.0,
			Inputs:         []wms.FileSpec{raw(i)},
			Outputs:        []wms.FileSpec{proj(i)},
		})
	}
	// mDiffFit: neighbouring pairs.
	for i := 0; i < tiles-1; i++ {
		id := fmt.Sprintf("difffit%03d", i)
		add(wms.TaskSpec{
			ID:             id,
			Transformation: "mDiffFit",
			WorkScale:      0.5,
			Inputs:         []wms.FileSpec{proj(i), proj(i + 1)},
			Outputs:        []wms.FileSpec{diff(i)},
		})
		dep(fmt.Sprintf("project%03d", i), id)
		dep(fmt.Sprintf("project%03d", i+1), id)
	}
	// mConcatFit joins every fit table.
	concatOut := wms.FileSpec{LFN: name + "-fits.tbl", Bytes: imageBytes / 32}
	concat := wms.TaskSpec{ID: "concatfit", Transformation: "mConcatFit", WorkScale: 0.3, Outputs: []wms.FileSpec{concatOut}}
	for i := 0; i < tiles-1; i++ {
		concat.Inputs = append(concat.Inputs, diff(i))
	}
	add(concat)
	for i := 0; i < tiles-1; i++ {
		dep(fmt.Sprintf("difffit%03d", i), "concatfit")
	}
	// mBgModel solves the correction model.
	modelOut := wms.FileSpec{LFN: name + "-model.tbl", Bytes: imageBytes / 128}
	add(wms.TaskSpec{
		ID: "bgmodel", Transformation: "mBgModel", WorkScale: 3.0,
		Inputs:  []wms.FileSpec{concatOut},
		Outputs: []wms.FileSpec{modelOut},
	})
	dep("concatfit", "bgmodel")
	// mBackground: apply the model per tile.
	for i := 0; i < tiles; i++ {
		id := fmt.Sprintf("background%03d", i)
		add(wms.TaskSpec{
			ID:             id,
			Transformation: "mBackground",
			WorkScale:      0.8,
			Inputs:         []wms.FileSpec{proj(i), modelOut},
			Outputs:        []wms.FileSpec{corr(i)},
		})
		dep(fmt.Sprintf("project%03d", i), id)
		dep("bgmodel", id)
	}
	// mAdd co-adds the mosaic.
	madd := wms.TaskSpec{
		ID: "add", Transformation: "mAdd", WorkScale: 4.0,
		Outputs: []wms.FileSpec{{LFN: name + "-mosaic.fits", Bytes: imageBytes * 2}},
	}
	for i := 0; i < tiles; i++ {
		madd.Inputs = append(madd.Inputs, corr(i))
	}
	add(madd)
	for i := 0; i < tiles; i++ {
		dep(fmt.Sprintf("background%03d", i), "add")
	}
	return wf
}
