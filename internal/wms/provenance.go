package wms

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
)

// provenance is the JSON record of a workflow run — the equivalent of
// Pegasus's kickstart/monitord provenance, consumable by external analysis
// tools.
type provenance struct {
	Workflow     string           `json:"workflow"`
	StartedSec   float64          `json:"started_s"`
	FinishedSec  float64          `json:"finished_s"`
	MakespanSec  float64          `json:"makespan_s"`
	Tasks        []taskProvenance `json:"tasks"`
	ModeCounts   map[string]int   `json:"mode_counts"`
	TotalRetries int              `json:"total_retries"`
}

// taskProvenance records one task's execution.
type taskProvenance struct {
	ID           string  `json:"id"`
	Mode         string  `json:"mode"`
	Node         string  `json:"node"`
	Attempts     int     `json:"attempts"`
	SubmittedSec float64 `json:"submitted_s"`
	StartedSec   float64 `json:"started_s"`
	FinishedSec  float64 `json:"finished_s"`
	QueuedSec    float64 `json:"queued_s"`
	ExecSec      float64 `json:"exec_s"`
}

// WriteProvenance writes the run's provenance as indented JSON. Tasks
// appear in the workflow's declaration order when wf is supplied, or sorted
// by start time when wf is nil.
func (r *RunResult) WriteProvenance(w io.Writer, wf *Workflow) error {
	p := provenance{
		Workflow:    r.Workflow,
		StartedSec:  r.StartedAt.Seconds(),
		FinishedSec: r.FinishedAt.Seconds(),
		MakespanSec: r.Makespan().Seconds(),
		ModeCounts:  make(map[string]int),
	}
	tasks := r.Tasks // declaration order
	if wf == nil {
		tasks = slices.Clone(tasks)
		slices.SortFunc(tasks, func(a, b *TaskResult) int {
			return cmp.Or(cmp.Compare(a.StartedAt, b.StartedAt), strings.Compare(a.ID, b.ID))
		})
	}
	for _, t := range tasks {
		p.Tasks = append(p.Tasks, taskProvenance{
			ID:           t.ID,
			Mode:         t.Mode.String(),
			Node:         t.Node,
			Attempts:     t.Attempts,
			SubmittedSec: t.SubmittedAt.Seconds(),
			StartedSec:   t.StartedAt.Seconds(),
			FinishedSec:  t.FinishedAt.Seconds(),
			QueuedSec:    (t.StartedAt - t.SubmittedAt).Seconds(),
			ExecSec:      (t.FinishedAt - t.StartedAt).Seconds(),
		})
		p.ModeCounts[t.Mode.String()]++
		p.TotalRetries += t.Attempts - 1
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(p); err != nil {
		return fmt.Errorf("wms: encoding provenance: %w", err)
	}
	return nil
}
