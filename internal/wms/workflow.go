// Package wms is the Pegasus-like workflow management system: abstract
// workflows of transformations over logical files, catalogs resolving
// transformations and replicas, a planner that maps each task onto one of
// the paper's three execution environments (native, traditional container,
// serverless), and a DAGMan-style engine that drives the plan through the
// condor pool.
//
// Data staging follows Pegasus's condorio style: logical files live on the
// submit node and travel inside each job's condor file-transfer sandbox, so
// every task's inputs leave through the submit uplink and its outputs return
// there — including, in container mode, the container image itself (§IV,
// Vahi et al.).
package wms

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// FileSpec is a logical file with its size; it is also the JSON form of a
// file in a Spec.
type FileSpec struct {
	// LFN is the logical file name, unique within a workflow run.
	LFN string `json:"lfn"`
	// Bytes is the file's size.
	Bytes int64 `json:"bytes"`
}

// TaskSpec is one abstract job: an invocation of a transformation over
// logical files.
type TaskSpec struct {
	// ID is unique within the workflow.
	ID string
	// Transformation names the executable in the transformation catalog.
	Transformation string
	// Inputs and Outputs are the task's file uses.
	Inputs  []FileSpec
	Outputs []FileSpec
	// WorkScale multiplies the transformation's service demand (0 means 1).
	// Task resizing (§IX-C) splits a task into subtasks with WorkScale
	// 1/k plus a split overhead.
	WorkScale float64
	// Priority orders the task's condor job against others competing for
	// slots (higher first).
	Priority int
	// RequireNode pins the task to a named worker (a simple ClassAd
	// requirement); empty runs anywhere.
	RequireNode string
}

// effectiveWorkScale returns WorkScale with the zero value defaulted to 1.
func (t *TaskSpec) effectiveWorkScale() float64 {
	if t.WorkScale <= 0 {
		return 1
	}
	return t.WorkScale
}

// inputBytes sums the task's input sizes.
func (t *TaskSpec) inputBytes() int64 {
	var n int64
	for _, f := range t.Inputs {
		n += f.Bytes
	}
	return n
}

// outputBytes sums the task's output sizes.
func (t *TaskSpec) outputBytes() int64 {
	var n int64
	for _, f := range t.Outputs {
		n += f.Bytes
	}
	return n
}

// Workflow is an abstract DAG of tasks. Tasks are stored densely in
// declaration order: AddTask gives each task the next int32 index and
// AddDependency appends to per-index adjacency lists, so the engine and
// Validate work on indices and only the API edge speaks string IDs. A run
// changes nothing in a Workflow but its atomic validation verdict, so one
// can be shared by concurrent simulations.
type Workflow struct {
	Name    string
	index   map[string]int32 // task ID → declaration index
	tasks   []*TaskSpec
	parents [][]int32 // child → parents, one entry per AddDependency
	childs  [][]int32 // parent → children
	// valid caches a successful Validate, with the run plan derived from
	// it, until the next AddTask or AddDependency. It is atomic because
	// concurrent simulations share a Workflow and each run validates it.
	valid atomic.Pointer[runPlan]
}

// runPlan is what every run of a validated workflow shares, derived once:
// each task's rank in ID order, which keys a run's due set so the poll
// tick settles tasks in ID order, and each task's
// "<workflow>/<task>" name, its spans' label and its trigger subject.
type runPlan struct {
	name   string  // the workflow name the names were built from
	rank   []int32 // declaration index → rank in ID order
	byRank []int32 // rank in ID order → declaration index
	names  []string
}

// newRunPlan derives the run plan of the workflow as it stands.
func (w *Workflow) newRunPlan() *runPlan {
	n := len(w.tasks)
	pl := &runPlan{name: w.Name, rank: make([]int32, n), byRank: make([]int32, n), names: make([]string, n)}
	for i, t := range w.tasks {
		pl.byRank[i] = int32(i)
		pl.names[i] = w.Name + "/" + t.ID
	}
	slices.SortFunc(pl.byRank, func(a, b int32) int { return strings.Compare(w.tasks[a].ID, w.tasks[b].ID) })
	for r, i := range pl.byRank {
		pl.rank[i] = int32(r)
	}
	return pl
}

// NewWorkflow returns an empty workflow.
func NewWorkflow(name string) *Workflow {
	return &Workflow{Name: name, index: make(map[string]int32)}
}

// AddTask registers a task. Duplicate IDs are an error.
func (w *Workflow) AddTask(t TaskSpec) error {
	if t.ID == "" {
		return fmt.Errorf("wms: task with empty ID")
	}
	if _, dup := w.index[t.ID]; dup {
		return fmt.Errorf("wms: duplicate task %q", t.ID)
	}
	spec := t
	w.invalidate()
	w.index[t.ID] = int32(len(w.tasks))
	w.tasks = append(w.tasks, &spec)
	w.parents = append(w.parents, nil)
	w.childs = append(w.childs, nil)
	return nil
}

// AddDependency declares that child runs after parent.
func (w *Workflow) AddDependency(parent, child string) error {
	pi, ok := w.index[parent]
	if !ok {
		return fmt.Errorf("wms: dependency references unknown task %q", parent)
	}
	ci, ok := w.index[child]
	if !ok {
		return fmt.Errorf("wms: dependency references unknown task %q", child)
	}
	w.invalidate()
	w.parents[ci] = append(w.parents[ci], pi)
	w.childs[pi] = append(w.childs[pi], ci)
	return nil
}

// Task returns a task by ID.
func (w *Workflow) Task(id string) (*TaskSpec, bool) {
	i, ok := w.index[id]
	if !ok {
		return nil, false
	}
	return w.tasks[i], true
}

// TaskIDs returns all task IDs in insertion order.
func (w *Workflow) TaskIDs() []string {
	ids := make([]string, len(w.tasks))
	for i, t := range w.tasks {
		ids[i] = t.ID
	}
	return ids
}

// Parents returns a task's parents.
func (w *Workflow) Parents(id string) []string { return w.ids(w.parents, id) }

// ids resolves one task's adjacency list to IDs (nil for an unknown task or
// an empty list).
func (w *Workflow) ids(adj [][]int32, id string) []string {
	i, ok := w.index[id]
	if !ok || len(adj[i]) == 0 {
		return nil
	}
	out := make([]string, len(adj[i]))
	for k, j := range adj[i] {
		out[k] = w.tasks[j].ID
	}
	return out
}

// Len returns the number of tasks.
func (w *Workflow) Len() int { return len(w.tasks) }

// topo is Kahn's algorithm over task indices: sources in declaration order,
// then each dequeued task's children in AddDependency order.
func (w *Workflow) topo() ([]int32, error) {
	indeg := make([]int32, len(w.tasks))
	out := make([]int32, 0, len(w.tasks))
	for i, ps := range w.parents {
		indeg[i] = int32(len(ps))
		if len(ps) == 0 {
			out = append(out, int32(i))
		}
	}
	for head := 0; head < len(out); head++ {
		for _, c := range w.childs[out[head]] {
			indeg[c]--
			if indeg[c] == 0 {
				out = append(out, c)
			}
		}
	}
	if len(out) != len(w.tasks) {
		return nil, fmt.Errorf("wms: workflow %s has a cycle", w.Name)
	}
	return out, nil
}

// producers maps every LFN some task outputs to its producing tasks.
func (w *Workflow) producers() map[string][]int32 {
	prod := make(map[string][]int32, len(w.tasks))
	for i, t := range w.tasks {
		for _, f := range t.Outputs {
			prod[f.LFN] = append(prod[f.LFN], int32(i))
		}
	}
	return prod
}

// ExternalInputs returns the logical files consumed by the workflow but
// produced by none of its tasks — these must be present on the submit node
// before the run (the replica catalog's job).
func (w *Workflow) ExternalInputs() []FileSpec {
	prod := w.producers()
	seen := make(map[string]FileSpec)
	for _, t := range w.tasks {
		for _, f := range t.Inputs {
			if prod[f.LFN] == nil {
				seen[f.LFN] = f
			}
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]FileSpec, len(names))
	for i, n := range names {
		out[i] = seen[n]
	}
	return out
}

// Validate checks structural soundness: acyclicity and that every task
// input is either an external input or produced by an ancestor. Tasks are
// checked in topological order and each task's inputs in declaration
// order, so the first error is deterministic. It runs in O(V+E+files)
// unless an input's producers are all non-parents, which costs one
// ancestor search for that task.
func (w *Workflow) Validate() error {
	_, err := w.validate()
	return err
}

// validate is Validate that returns the run plan it caches.
func (w *Workflow) validate() (*runPlan, error) {
	topo, err := w.topo()
	if err != nil {
		return nil, err
	}
	prod := w.producers()
	// For topo[k], stamp[j] == 2k+1 marks j as a parent and 2k+2 as an
	// ancestor; ancestors are stamped only when some input needs them.
	stamp := make([]int32, len(w.tasks))
	var stack []int32
	for k, i := range topo {
		parent, ancestor := int32(2*k+1), int32(2*k+2)
		for _, par := range w.parents[i] {
			stamp[par] = parent
		}
		searched := false
		for _, f := range w.tasks[i].Inputs {
			ps := prod[f.LFN]
			if ps == nil || slices.ContainsFunc(ps, func(j int32) bool { return stamp[j] == parent }) {
				continue
			}
			if !searched {
				stack = w.stampAncestors(i, ancestor, stamp, stack[:0])
				searched = true
			}
			if !slices.ContainsFunc(ps, func(j int32) bool { return stamp[j] == ancestor }) {
				return nil, fmt.Errorf("wms: task %s input %q is produced by a non-ancestor", w.tasks[i].ID, f.LFN)
			}
		}
	}
	pl := w.newRunPlan()
	w.valid.Store(pl)
	return pl, nil
}

// invalidate drops a cached Validate verdict. Building a workflow calls it
// per task and edge, so it stores only when there is a verdict to drop.
func (w *Workflow) invalidate() {
	if w.valid.Load() != nil {
		w.valid.Store(nil)
	}
}

// validateOnce is Validate for a run, returning the run plan: a workflow
// that passed is not checked again until it changes or is renamed.
func (w *Workflow) validateOnce() (*runPlan, error) {
	if pl := w.valid.Load(); pl != nil && pl.name == w.Name {
		return pl, nil
	}
	return w.validate()
}

// stampAncestors marks every ancestor of task i with mark, by depth-first
// search over parent lists; stack is reusable scratch space.
func (w *Workflow) stampAncestors(i, mark int32, stamp, stack []int32) []int32 {
	stack = append(stack, i)
	for len(stack) > 0 {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, par := range w.parents[j] {
			if stamp[par] != mark {
				stamp[par] = mark
				stack = append(stack, par)
			}
		}
	}
	return stack
}
