package wms

import (
	"fmt"
	"slices"
)

// ClusterVertical performs Pegasus-style label-based (vertical) task
// clustering (§II-C: "Pegasus also performs workflow restructuring and task
// clustering to improve execution efficiency"): maximal linear runs of up
// to maxSize same-transformation tasks are merged into single cluster
// tasks, so a run of k tasks pays one scheduling round trip instead of k.
//
// A task joins the cluster ending at its parent only when the parent has
// exactly one child and the task exactly one parent (a pure chain segment);
// anything else starts a new cluster. The merged task's service demand is
// the sum of its members' (via WorkScale); its inputs are the member inputs
// not produced inside the cluster and its outputs the member outputs
// consumed outside it (or by nobody, i.e. workflow outputs).
func ClusterVertical(wf *Workflow, maxSize int) (*Workflow, error) {
	if maxSize < 1 {
		return nil, fmt.Errorf("wms: cluster size %d < 1", maxSize)
	}
	topo, err := wf.topo()
	if err != nil {
		return nil, err
	}
	if maxSize == 1 {
		return wf, nil
	}

	// Assign each task to a cluster.
	clusterOf := make([]int, wf.Len())
	var clusters [][]int32
	for _, i := range topo {
		if ps := wf.parents[i]; len(ps) == 1 {
			par := ps[0]
			ci := clusterOf[par] // assigned already: parents precede in topo
			members := clusters[ci]
			if members[len(members)-1] == par &&
				len(members) < maxSize &&
				len(wf.childs[par]) == 1 &&
				wf.tasks[par].Transformation == wf.tasks[i].Transformation {
				clusters[ci] = append(members, i)
				clusterOf[i] = ci
				continue
			}
		}
		clusterOf[i] = len(clusters)
		clusters = append(clusters, []int32{i})
	}

	// Build the clustered workflow. consumers lists, per file, the clusters
	// of the tasks that read it.
	consumers := make(map[string][]int)
	for j, t := range wf.tasks {
		for _, f := range t.Inputs {
			consumers[f.LFN] = append(consumers[f.LFN], clusterOf[j])
		}
	}
	out := NewWorkflow(wf.Name + "-clustered")
	names := make([]string, len(clusters))
	for ci, members := range clusters {
		first := wf.tasks[members[0]]
		names[ci] = first.ID
		if len(members) > 1 {
			names[ci] = first.ID + ".." + wf.tasks[members[len(members)-1]].ID
		}
		produced := make(map[string]bool)
		for _, j := range members {
			for _, f := range wf.tasks[j].Outputs {
				produced[f.LFN] = true
			}
		}
		// Inputs are never produced inside and outputs always are, so one
		// set dedupes both.
		merged := TaskSpec{ID: names[ci], Transformation: first.Transformation}
		seen := make(map[string]bool)
		for _, j := range members {
			t := wf.tasks[j]
			merged.WorkScale += t.effectiveWorkScale()
			for _, f := range t.Inputs {
				if !produced[f.LFN] && !seen[f.LFN] {
					seen[f.LFN] = true
					merged.Inputs = append(merged.Inputs, f)
				}
			}
			// Keep an output if someone outside the cluster consumes it, or
			// nobody consumes it at all (a workflow-final output). Outputs
			// consumed only inside the cluster stay in the job's sandbox.
			for _, f := range t.Outputs {
				cs := consumers[f.LFN]
				keep := len(cs) == 0 || slices.ContainsFunc(cs, func(c int) bool { return c != ci })
				if keep && !seen[f.LFN] {
					seen[f.LFN] = true
					merged.Outputs = append(merged.Outputs, f)
				}
			}
		}
		if err := out.AddTask(merged); err != nil {
			return nil, err
		}
	}

	// Re-map dependencies between clusters.
	added := make(map[[2]int]bool)
	for ci, members := range clusters {
		for _, j := range members {
			for _, par := range wf.parents[j] {
				edge := [2]int{clusterOf[par], ci}
				if edge[0] == ci || added[edge] {
					continue
				}
				added[edge] = true
				if err := out.AddDependency(names[edge[0]], names[ci]); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("wms: clustering produced invalid workflow: %w", err)
	}
	return out, nil
}
