package report

import (
	"fmt"
	"html/template"
	"io"
	"slices"
	"sort"
	"time"

	"repro/internal/wms"
)

// htmlGantt is the self-contained report page: inline CSS, no scripts, no
// external assets.
var htmlGantt = template.Must(template.New("gantt").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{{.Workflow}} — workflow timeline</title>
<style>
  body { font: 14px/1.4 system-ui, sans-serif; margin: 2rem; color: #222; }
  h1 { font-size: 1.2rem; }
  .meta { color: #555; margin-bottom: 1rem; }
  .row { display: flex; align-items: center; height: 22px; }
  .label { width: 12rem; font-family: ui-monospace, monospace; font-size: 12px;
           white-space: nowrap; overflow: hidden; text-overflow: ellipsis; }
  .lane { position: relative; flex: 1; height: 14px; background: #f3f3f3;
          border-radius: 3px; }
  .queued, .exec { position: absolute; top: 0; height: 100%; border-radius: 3px; }
  .queued { background: #d9d9d9; }
  .exec.native { background: #4c78a8; }
  .exec.container { background: #e45756; }
  .exec.serverless { background: #54a24b; }
  .legend { margin-top: 1rem; font-size: 12px; color: #555; }
  .chip { display: inline-block; width: 10px; height: 10px; border-radius: 2px;
          margin: 0 4px 0 12px; vertical-align: baseline; }
</style>
</head>
<body>
<h1>{{.Workflow}}</h1>
<div class="meta">makespan {{.Makespan}} · {{len .Rows}} tasks</div>
{{range .Rows}}<div class="row">
  <div class="label" title="{{.ID}} on {{.Node}}">{{.ID}}</div>
  <div class="lane">
    <div class="queued" style="left:{{.QueuedLeft}}%;width:{{.QueuedWidth}}%"
         title="queued {{.QueuedFor}}"></div>
    <div class="exec {{.Mode}}" style="left:{{.ExecLeft}}%;width:{{.ExecWidth}}%"
         title="{{.Mode}} on {{.Node}}: {{.ExecFor}}"></div>
  </div>
</div>
{{end}}<div class="legend">
  <span class="chip" style="background:#d9d9d9"></span>queued
  <span class="chip" style="background:#4c78a8"></span>native
  <span class="chip" style="background:#e45756"></span>container
  <span class="chip" style="background:#54a24b"></span>serverless
</div>
</body>
</html>
`))

type htmlRow struct {
	ID, Node, Mode                               string
	QueuedLeft, QueuedWidth, ExecLeft, ExecWidth float64
	QueuedFor, ExecFor                           string
}

type htmlPage struct {
	Workflow string
	Makespan string
	Rows     []htmlRow
}

// WriteHTML renders the run as a self-contained HTML Gantt page.
func WriteHTML(w io.Writer, run *wms.RunResult) error {
	span := run.FinishedAt - run.StartedAt
	if span <= 0 {
		span = time.Nanosecond
	}
	pct := func(t time.Duration) float64 {
		v := float64(t-run.StartedAt) / float64(span) * 100
		if v < 0 {
			return 0
		}
		if v > 100 {
			return 100
		}
		return v
	}
	tasks := slices.Clone(run.Tasks)
	sort.Slice(tasks, func(i, j int) bool {
		if tasks[i].SubmittedAt != tasks[j].SubmittedAt {
			return tasks[i].SubmittedAt < tasks[j].SubmittedAt
		}
		return tasks[i].ID < tasks[j].ID
	})
	page := htmlPage{
		Workflow: run.Workflow,
		Makespan: fmt.Sprint(run.Makespan().Truncate(time.Millisecond)),
	}
	for _, t := range tasks {
		page.Rows = append(page.Rows, htmlRow{
			ID:          t.ID,
			Node:        t.Node,
			Mode:        t.Mode.String(),
			QueuedLeft:  pct(t.SubmittedAt),
			QueuedWidth: pct(t.StartedAt) - pct(t.SubmittedAt),
			ExecLeft:    pct(t.StartedAt),
			ExecWidth:   pct(t.FinishedAt) - pct(t.StartedAt),
			QueuedFor:   fmt.Sprint((t.StartedAt - t.SubmittedAt).Truncate(time.Millisecond)),
			ExecFor:     fmt.Sprint((t.FinishedAt - t.StartedAt).Truncate(time.Millisecond)),
		})
	}
	return htmlGantt.Execute(w, page)
}
