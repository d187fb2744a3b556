// Package report renders workflow run provenance for humans: an ASCII
// Gantt timeline of task spans (queued vs executing), per-mode summaries,
// and a critical-path listing. cmd/wfrun uses it for single-workflow runs.
package report

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/wms"
)

// ganttWidth is the number of character cells the timeline spans.
const ganttWidth = 60

// Timeline renders an ASCII Gantt chart of the run: one row per task, '.'
// while the task waits in the queue (submitted → started) and a mode letter
// while it executes (n/c/s).
func Timeline(w io.Writer, run *wms.RunResult) error {
	if len(run.Tasks) == 0 {
		_, err := fmt.Fprintln(w, "(no tasks)")
		return err
	}
	tasks := slices.Clone(run.Tasks)
	sort.Slice(tasks, func(i, j int) bool {
		if tasks[i].SubmittedAt != tasks[j].SubmittedAt {
			return tasks[i].SubmittedAt < tasks[j].SubmittedAt
		}
		return tasks[i].ID < tasks[j].ID
	})
	start, end := run.StartedAt, run.FinishedAt
	span := end - start
	if span <= 0 {
		span = time.Nanosecond
	}
	cell := func(t time.Duration) int {
		c := int(float64(t-start) / float64(span) * ganttWidth)
		if c < 0 {
			c = 0
		}
		if c >= ganttWidth {
			c = ganttWidth - 1
		}
		return c
	}
	idWidth := 4
	for _, t := range tasks {
		if len(t.ID) > idWidth {
			idWidth = len(t.ID)
		}
	}
	if _, err := fmt.Fprintf(w, "%-*s  |%s|  mode@node\n", idWidth, "task", strings.Repeat("-", ganttWidth)); err != nil {
		return err
	}
	for _, t := range tasks {
		row := make([]byte, ganttWidth)
		for i := range row {
			row[i] = ' '
		}
		q0, q1 := cell(t.SubmittedAt), cell(t.StartedAt)
		for i := q0; i <= q1; i++ {
			row[i] = '.'
		}
		letter := t.Mode.String()[0]
		e0, e1 := cell(t.StartedAt), cell(t.FinishedAt)
		for i := e0; i <= e1; i++ {
			row[i] = letter
		}
		if _, err := fmt.Fprintf(w, "%-*s  |%s|  %s@%s\n", idWidth, t.ID, row, t.Mode, t.Node); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-*s  |%s|\n('.' queued, letter = executing; %s total)\n",
		idWidth, "", timeAxis(span), span.Truncate(time.Millisecond))
	return err
}

// timeAxis renders tick marks under the chart.
func timeAxis(span time.Duration) string {
	axis := []byte(strings.Repeat(" ", ganttWidth))
	for i := 0; i <= 4; i++ {
		pos := i * (ganttWidth - 1) / 4
		axis[pos] = '+'
	}
	return string(axis)
}

// Summary renders per-mode task counts and duration statistics.
func Summary(w io.Writer, run *wms.RunResult) error {
	byMode := map[wms.Mode][]float64{}
	queued := map[wms.Mode][]float64{}
	for _, t := range run.Tasks {
		byMode[t.Mode] = append(byMode[t.Mode], (t.FinishedAt - t.StartedAt).Seconds())
		queued[t.Mode] = append(queued[t.Mode], (t.StartedAt - t.SubmittedAt).Seconds())
	}
	tbl := metrics.NewTable("mode", "tasks", "mean_exec_s", "max_exec_s", "mean_queue_s")
	for _, m := range []wms.Mode{wms.ModeNative, wms.ModeContainer, wms.ModeServerless} {
		if len(byMode[m]) == 0 {
			continue
		}
		s := metrics.Summarize(byMode[m])
		tbl.AddRow(m.String(), s.N, s.Mean, s.Max, metrics.Mean(queued[m]))
	}
	if err := tbl.Write(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "makespan: %.1fs\n", run.Makespan().Seconds())
	return err
}

// CriticalPath lists the chain of tasks that determined the makespan: the
// task that finished last, its latest-finishing executed predecessor among
// the workflow's parents, and so on back to a root. Ties go to the task
// declared first.
func CriticalPath(w io.Writer, wf *wms.Workflow, run *wms.RunResult) error {
	var path []*wms.TaskResult
	for cur := latest(run, wf, wf.TaskIDs()); cur != nil; cur = latest(run, wf, wf.Parents(cur.ID)) {
		path = append(path, cur)
	}
	if len(path) == 0 {
		_, err := fmt.Fprintln(w, "(no tasks)")
		return err
	}
	// Reverse to root-first order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	tbl := metrics.NewTable("task", "mode", "node", "queued_s", "exec_s", "finished_s")
	for _, t := range path {
		tbl.AddRow(t.ID, t.Mode.String(), t.Node,
			(t.StartedAt - t.SubmittedAt).Seconds(),
			(t.FinishedAt - t.StartedAt).Seconds(),
			t.FinishedAt.Seconds())
	}
	return tbl.Write(w)
}

// latest returns the executed task among ids that finished last, the first
// in ids on a tie, or nil when none executed.
func latest(run *wms.RunResult, wf *wms.Workflow, ids []string) *wms.TaskResult {
	var last *wms.TaskResult
	for _, id := range ids {
		if t := run.Task(wf, id); t != nil && (last == nil || t.FinishedAt > last.FinishedAt) {
			last = t
		}
	}
	return last
}
