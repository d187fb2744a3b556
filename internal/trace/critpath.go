package trace

import (
	"fmt"
	"time"

	"repro/internal/metrics"
)

// Stage is a coarse bucket of where a task's wall-clock time went — the
// decomposition behind every figure of the paper (queue wait vs image pull
// vs cold start vs execution vs data staging).
type Stage string

// Stage buckets, in canonical display order (see Stages).
const (
	// StageQueue is time waiting for a slot or replica: condor
	// submit→match plus knative request queueing.
	StageQueue Stage = "queue"
	// StageXfer is condor file-transfer sandbox movement (inputs, images
	// shipped with the job, outputs).
	StageXfer Stage = "xfer"
	// StagePull is registry image pulls and docker-load unpacking.
	StagePull Stage = "pull"
	// StageContainer is container lifecycle overhead: create, start,
	// stop+remove.
	StageContainer Stage = "container"
	// StageColdStart is time a request waited on a scale-from-zero.
	StageColdStart Stage = "coldstart"
	// StageExec is useful work: task payload execution.
	StageExec Stage = "exec"
	// StageStaging is data staging: shared-fs/object-store I/O and
	// pass-by-value payload codec+transfer.
	StageStaging Stage = "staging"
	// StageOverhead is fixed per-job machinery: shadow spawn, starter
	// setup, wrapper startup, queue-proxy, requeue penalties.
	StageOverhead Stage = "overhead"
	// StagePoll is DAGMan poll quantization: a task is finished but the
	// engine has not observed it yet.
	StagePoll Stage = "dagman-poll"
	// StageRelease is the event-driven release path (decentralized and
	// trigger execution modes): zero-duration markers stamped when a
	// completion releases successors, so the bucket stays empty under the
	// poll mode and golden outputs are unchanged.
	StageRelease Stage = "release"
	// StageRetryWait is backoff between a task's failed attempt and its
	// resubmission.
	StageRetryWait Stage = "retry-wait"
	// StageShed is overload-protection activity: admission sheds, deadline
	// drops, and circuit-breaker fast-fails. These are zero-duration
	// markers, so the bucket stays empty unless protections fire.
	StageShed Stage = "shed"
	// StageIdle is critical-path slack between tasks (and before the first
	// task), e.g. the engine's initial poll phase.
	StageIdle Stage = "idle"
	// StageOther is anything unclassified (should stay near zero).
	StageOther Stage = "other"
)

// Stages lists every bucket in canonical display order.
func Stages() []Stage {
	return []Stage{
		StageQueue, StageXfer, StagePull, StageContainer, StageColdStart,
		StageExec, StageStaging, StageOverhead, StagePoll, StageRelease,
		StageRetryWait, StageShed, StageIdle, StageOther,
	}
}

// stageOf classifies a span into its stage bucket.
func stageOf(sp *Span) Stage {
	switch sp.substrate {
	case "condor":
		switch sp.name {
		case "queue":
			return StageQueue
		case "xfer-in", "xfer-out":
			return StageXfer
		case "shadow", "job-start", "requeue", "job", "claim", "payload":
			// job/claim/payload are structural wrappers: their self time is
			// the scheduler machinery between their children's intervals.
			return StageOverhead
		}
	case "registry":
		if sp.name == "breaker" {
			return StageShed
		}
		return StagePull
	case "crt":
		switch sp.name {
		case "pull", "import":
			return StagePull
		case "create", "start", "stop-remove":
			return StageContainer
		case "exec":
			return StageExec
		}
	case "knative":
		switch sp.name {
		case "coldstart":
			return StageColdStart
		case "queue":
			return StageQueue
		case "payload-in", "payload-out":
			return StageStaging
		case "queue-proxy", "invoke":
			return StageOverhead
		case "backoff":
			return StageRetryWait
		case "shed", "breaker":
			return StageShed
		}
	case "kube":
		return StageContainer
	case "sched":
		// Placement decisions are zero-duration markers; any self time they
		// ever carry is scheduler machinery.
		return StageOverhead
	case "storage":
		return StageStaging
	case "exec":
		return StageExec
	case "wms":
		switch sp.name {
		case "wrapper-startup", "hedge":
			// A hedge span's children (the speculative condor job) classify
			// themselves; its self time is engine machinery.
			return StageOverhead
		case "task":
			return StagePoll // self time = completion → poll observation
		case "release":
			return StageRelease
		}
	}
	return StageOther
}

// DAG is the task-graph view the analyzer needs; *wms.Workflow satisfies it.
type DAG interface {
	TaskIDs() []string
	Parents(id string) []string
}

// Step is one task on the critical path.
type Step struct {
	// Task is the task ID.
	Task string
	// Start is the first attempt's submission; End is when the engine
	// observed completion.
	Start, End time.Duration
	// Gap is critical-path slack before this step (after the previous
	// step's End, or after workflow start for the first step).
	Gap time.Duration
	// Attempts is the number of task attempts recorded.
	Attempts int
	// Stages decomposes End−Start by stage bucket.
	Stages map[Stage]time.Duration
}

// CriticalPath is the longest dependency chain through one workflow's trace,
// with a per-stage decomposition that reconciles exactly with the makespan:
// summing Stages over all buckets yields Makespan to the nanosecond.
type CriticalPath struct {
	// Start is when the workflow span began; Makespan is its length.
	Start, Makespan time.Duration
	// Steps is the critical path in execution order.
	Steps []Step
	// Stages aggregates the per-step decompositions plus StageIdle slack.
	Stages map[Stage]time.Duration
}

// taskInterval aggregates all attempts of one task.
type taskInterval struct {
	start, end time.Duration
	attempts   []*Span
	decl       int // position in the DAG's declaration order
}

// Analyze extracts the critical path of the named workflow from the trace.
// It requires the workflow to have run to completion with tracing attached
// (a wms workflow span plus task spans for every DAG task on the path).
func Analyze(t *Tracer, dag DAG, workflow string) (*CriticalPath, error) {
	if t == nil {
		return nil, fmt.Errorf("trace: no tracer attached")
	}
	var wf *Span
	for _, sp := range t.Spans() {
		if sp.substrate == "wms" && sp.name == "workflow" {
			if name, _ := sp.Label("workflow"); name == workflow {
				wf = sp // keep the last matching run
			}
		}
	}
	if wf == nil {
		return nil, fmt.Errorf("trace: no workflow span for %q", workflow)
	}
	if !wf.Ended() {
		return nil, fmt.Errorf("trace: workflow span for %q never ended", workflow)
	}

	tasks := make(map[string]*taskInterval)
	for sp := wf.firstChild; sp != nil; sp = sp.nextSibling {
		if sp.name != "task" || !sp.Ended() {
			continue
		}
		id, _ := sp.Label("task")
		ti := tasks[id]
		if ti == nil {
			ti = &taskInterval{start: sp.start, end: sp.end}
			tasks[id] = ti
		}
		if sp.start < ti.start {
			ti.start = sp.start
		}
		if sp.end > ti.end {
			ti.end = sp.end
		}
		ti.attempts = append(ti.attempts, sp)
	}
	if len(tasks) == 0 {
		return nil, fmt.Errorf("trace: workflow %q has no task spans", workflow)
	}

	// Tail of the path: the task observed finished last (ties break by DAG
	// declaration order, which is deterministic).
	var last string
	for k, id := range dag.TaskIDs() {
		ti := tasks[id]
		if ti == nil {
			continue
		}
		ti.decl = k
		if last == "" || ti.end > tasks[last].end {
			last = id
		}
	}
	if last == "" {
		return nil, fmt.Errorf("trace: no DAG task of %q appears in the trace", workflow)
	}

	// Walk backwards: each step waits on its latest-finishing traced parent,
	// ties broken by declaration order.
	var rev []string
	for id := last; id != ""; {
		rev = append(rev, id)
		next := ""
		for _, par := range dag.Parents(id) {
			if tasks[par] == nil {
				continue
			}
			if next == "" || tasks[par].end > tasks[next].end ||
				tasks[par].end == tasks[next].end && tasks[par].decl < tasks[next].decl {
				next = par
			}
		}
		id = next
	}

	cp := &CriticalPath{
		Start:    wf.start,
		Makespan: wf.end - wf.start,
		Stages:   make(map[Stage]time.Duration),
	}
	prevEnd := wf.start
	for i := len(rev) - 1; i >= 0; i-- {
		id := rev[i]
		ti := tasks[id]
		step := Step{
			Task:     id,
			Start:    ti.start,
			End:      ti.end,
			Attempts: len(ti.attempts),
			Stages:   make(map[Stage]time.Duration),
		}
		if ti.start > prevEnd {
			step.Gap = ti.start - prevEnd
		}
		var attempted time.Duration
		for _, att := range ti.attempts {
			addSelfTimes(att, step.Stages)
			attempted += att.Duration()
		}
		// Time inside the step not covered by any attempt is retry backoff
		// (the engine's wait between a failure and the resubmission).
		if wait := step.End - step.Start - attempted; wait > 0 {
			step.Stages[StageRetryWait] += wait
		}
		cp.Steps = append(cp.Steps, step)
		cp.Stages[StageIdle] += step.Gap
		for st, d := range step.Stages {
			cp.Stages[st] += d
		}
		if ti.end > prevEnd {
			prevEnd = ti.end
		}
	}
	// Slack after the last step (zero when the engine closes the workflow
	// at the same poll tick it observes the final completion).
	if wf.end > prevEnd {
		cp.Stages[StageIdle] += wf.end - prevEnd
	}
	return cp, nil
}

// addSelfTimes walks the subtree under root, adding each span's self time
// (duration minus that of its children) to its stage bucket. Because child
// spans nest within their parents, the buckets sum to root's duration.
//
// Speculative hedge copies run concurrently with the attempt's primary
// submission, so a naive subtree sum would double-count wall time. The walk
// keeps exactly one chain per attempt: when a hedge won (the engine stamps
// the attempt span with "hedge-win"), the winning hedge's subtree replaces
// the abandoned primary's; otherwise losing hedge subtrees are dropped. A
// hedge-won attempt's own self time — the window spent waiting on the
// straggling primary before and during the hedge — counts as queue wait
// rather than poll lag.
func addSelfTimes(root *Span, into map[Stage]time.Duration) {
	_, hedgeWon := root.Label("hedge-win")
	var walk func(sp *Span) // returns nothing; accumulates into `into`
	walk = func(sp *Span) {
		var covered time.Duration
		for c := sp.firstChild; c != nil; c = c.nextSibling {
			if sp == root && skipLosingCopy(c, hedgeWon) {
				continue
			}
			covered += c.Duration()
			walk(c)
		}
		// Zero-duration marker spans (placement decisions) carry no time and
		// must not materialize empty stage buckets.
		if sp.Duration() > 0 {
			self := sp.Duration() - covered
			if self < 0 {
				self = 0
			}
			st := stageOf(sp)
			if sp == root && hedgeWon {
				st = StageQueue
			}
			into[st] += self
		}
	}
	walk(root)
}

// skipLosingCopy reports whether a direct child of an attempt span is a
// task copy whose wall time must not be counted: a hedge that did not win,
// or — when a hedge did win — the abandoned primary condor submission.
func skipLosingCopy(c *Span, hedgeWon bool) bool {
	if c.substrate == "wms" && c.name == "hedge" {
		status, _ := c.Label("status")
		return status != "won"
	}
	return hedgeWon && c.substrate == "condor"
}

// StageSum returns the total across all stage buckets; by construction it
// equals Makespan.
func (cp *CriticalPath) StageSum() time.Duration {
	var sum time.Duration
	for _, d := range cp.Stages {
		sum += d
	}
	return sum
}

// Table renders the per-stage critical-path decomposition as a
// metrics.Table, with a reconciliation row against the makespan.
func (cp *CriticalPath) Table() *metrics.Table {
	tbl := metrics.NewTable("stage", "seconds", "pct")
	total := cp.Makespan.Seconds()
	for _, st := range Stages() {
		d, ok := cp.Stages[st]
		if !ok {
			continue
		}
		pct := 0.0
		if total > 0 {
			pct = d.Seconds() / total * 100
		}
		tbl.AddRow(string(st), d.Seconds(), pct)
	}
	tbl.AddRow("total", cp.StageSum().Seconds(), 100.0)
	tbl.AddRow("makespan", total, 100.0)
	return tbl
}

// StepsTable renders the critical path task by task.
func (cp *CriticalPath) StepsTable() *metrics.Table {
	tbl := metrics.NewTable("task", "gap_s", "start_s", "dur_s", "attempts", "dominant_stage")
	for _, s := range cp.Steps {
		var dom Stage
		var max time.Duration
		for _, st := range Stages() {
			if d := s.Stages[st]; d > max {
				dom, max = st, d
			}
		}
		tbl.AddRow(s.Task, s.Gap.Seconds(), (s.Start - cp.Start).Seconds(), (s.End - s.Start).Seconds(), s.Attempts, string(dom))
	}
	return tbl
}
