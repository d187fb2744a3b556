package wms_test

import (
	"fmt"
	"strings"

	"repro/internal/wms"
)

// Building an abstract workflow and clustering its chain segments — the
// Pegasus restructuring of §II-C.
func ExampleClusterVertical() {
	wf := wms.NewWorkflow("pipeline")
	for i := 0; i < 4; i++ {
		_ = wf.AddTask(wms.TaskSpec{
			ID:             fmt.Sprintf("step%d", i),
			Transformation: "matmul",
			Inputs:         []wms.FileSpec{{LFN: fmt.Sprintf("m%d.dat", i), Bytes: 980000}},
			Outputs:        []wms.FileSpec{{LFN: fmt.Sprintf("m%d.dat", i+1), Bytes: 980000}},
		})
		if i > 0 {
			_ = wf.AddDependency(fmt.Sprintf("step%d", i-1), fmt.Sprintf("step%d", i))
		}
	}

	clustered, err := wms.ClusterVertical(wf, 2)
	if err != nil {
		panic(err)
	}
	for _, id := range clustered.TaskIDs() {
		task, _ := clustered.Task(id)
		fmt.Printf("%s (work x%.0f)\n", id, task.WorkScale)
	}
	// Output:
	// step0..step1 (work x2)
	// step2..step3 (work x2)
}

// Loading a workflow from the JSON spec format cmd/wfrun accepts.
func ExampleLoadSpec() {
	const spec = `{
	  "name": "two-step",
	  "tasks": [
	    {"id": "a", "transformation": "matmul",
	     "outputs": [{"lfn": "x", "bytes": 1}]},
	    {"id": "b", "transformation": "matmul", "mode": "serverless",
	     "inputs": [{"lfn": "x", "bytes": 1}], "deps": ["a"]}
	  ]
	}`
	parsed, err := wms.LoadSpec(strings.NewReader(spec))
	if err != nil {
		panic(err)
	}
	wf, assign, err := parsed.Build()
	if err != nil {
		panic(err)
	}
	fmt.Println(wf.Name, wf.Len(), "tasks")
	fmt.Println("b runs", assign(wf.Name, "b"))
	// Output:
	// two-step 2 tasks
	// b runs serverless
}
