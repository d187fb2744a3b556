package wms

import (
	"encoding/json"
	"fmt"
	"io"
)

// Spec is the JSON description of a workflow accepted by cmd/wfrun — the
// equivalent of Pegasus's abstract workflow file, with an optional
// per-task execution mode.
type Spec struct {
	Name string `json:"name"`
	// DefaultMode applies to tasks that do not set one ("native",
	// "container", or "serverless"; default "native").
	DefaultMode string     `json:"default_mode,omitempty"`
	Tasks       []SpecTask `json:"tasks"`
}

// SpecTask describes one task.
type SpecTask struct {
	ID             string     `json:"id"`
	Transformation string     `json:"transformation"`
	Mode           string     `json:"mode,omitempty"`
	Inputs         []FileSpec `json:"inputs,omitempty"`
	Outputs        []FileSpec `json:"outputs,omitempty"`
	Deps           []string   `json:"deps,omitempty"`
	// WorkScale multiplies the transformation's service demand (0 = 1).
	WorkScale float64 `json:"work_scale,omitempty"`
	// Priority orders slot competition (higher first).
	Priority int `json:"priority,omitempty"`
	// RequireNode pins the task to a named worker.
	RequireNode string `json:"require_node,omitempty"`
}

// ParseMode converts a mode string to a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "native", "":
		return ModeNative, nil
	case "container":
		return ModeContainer, nil
	case "serverless":
		return ModeServerless, nil
	default:
		return 0, fmt.Errorf("wms: unknown mode %q (want native, container, or serverless)", s)
	}
}

// LoadSpec parses a JSON workflow spec.
func LoadSpec(r io.Reader) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("wms: parsing spec: %w", err)
	}
	if s.Name == "" {
		return Spec{}, fmt.Errorf("wms: spec has no name")
	}
	if len(s.Tasks) == 0 {
		return Spec{}, fmt.Errorf("wms: spec %q has no tasks", s.Name)
	}
	return s, nil
}

// Build materialises the spec into a validated workflow and the mode
// assignment it declares.
func (s Spec) Build() (*Workflow, ModeAssigner, error) {
	defMode, err := ParseMode(s.DefaultMode)
	if err != nil {
		return nil, nil, err
	}
	wf := NewWorkflow(s.Name)
	modes := make(map[string]Mode, len(s.Tasks))
	for _, t := range s.Tasks {
		if err := wf.AddTask(TaskSpec{
			ID:             t.ID,
			Transformation: t.Transformation,
			Inputs:         t.Inputs,
			Outputs:        t.Outputs,
			WorkScale:      t.WorkScale,
			Priority:       t.Priority,
			RequireNode:    t.RequireNode,
		}); err != nil {
			return nil, nil, err
		}
		m := defMode
		if t.Mode != "" {
			if m, err = ParseMode(t.Mode); err != nil {
				return nil, nil, fmt.Errorf("wms: task %s: %w", t.ID, err)
			}
		}
		modes[t.ID] = m
	}
	for _, t := range s.Tasks {
		for _, dep := range t.Deps {
			if err := wf.AddDependency(dep, t.ID); err != nil {
				return nil, nil, err
			}
		}
	}
	if err := wf.Validate(); err != nil {
		return nil, nil, err
	}
	assign := func(_, taskID string) Mode { return modes[taskID] }
	return wf, assign, nil
}
