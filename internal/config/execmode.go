package config

import (
	"fmt"
	"strings"
)

// ExecMode selects the workflow engine's release path — the mechanism by
// which a completed task's successors learn they are ready to run. The
// three modes share one DAG bookkeeping core (internal/wms) and differ only
// in who makes the release decision and when.
type ExecMode int

const (
	// ExecPoll is the DAGMan-style central loop (the seed behaviour and the
	// default): a single engine process polls the queue every DAGManPoll,
	// observes completions, and submits newly ready tasks. Completed tasks
	// wait up to one poll interval before their successors are released —
	// the `dagman-poll` critical-path bucket.
	ExecPoll ExecMode = iota
	// ExecDecentralized is Wukong-style decentralized scheduling ("In
	// Search of a Fast and Efficient Serverless DAG Engine"): a completing
	// task directly enqueues its ready successors the instant it finishes.
	// There is no poll tick and no central loop on the release path.
	ExecDecentralized
	// ExecTrigger is Triggerflow-style event-driven orchestration: task
	// completions publish typed CloudEvents through the knative eventing
	// broker, and a filtered trigger releases successors. The release
	// decision still happens promptly, but rides the eventing layer (an
	// ingress hop plus broker dispatch) instead of a direct call.
	ExecTrigger
)

// String returns the mode's canonical knob value.
func (m ExecMode) String() string {
	switch m {
	case ExecPoll:
		return "poll"
	case ExecDecentralized:
		return "decentralized"
	case ExecTrigger:
		return "trigger"
	default:
		return fmt.Sprintf("ExecMode(%d)", int(m))
	}
}

// ExecModes lists every execution mode in canonical order.
func ExecModes() []ExecMode {
	return []ExecMode{ExecPoll, ExecDecentralized, ExecTrigger}
}

// execModeNames lists the accepted knob values in canonical order.
func execModeNames() []string {
	names := make([]string, 0, 3)
	for _, m := range ExecModes() {
		names = append(names, m.String())
	}
	return names
}

// ParseExecMode resolves an ExecMode knob value. The empty string is
// ExecPoll (the seed behaviour); anything else unrecognised is an error
// naming the valid values — misconfigurations must fail fast, never fall
// back to poll silently.
func ParseExecMode(s string) (ExecMode, error) {
	switch s {
	case "", "poll":
		return ExecPoll, nil
	case "decentralized":
		return ExecDecentralized, nil
	case "trigger":
		return ExecTrigger, nil
	default:
		return ExecPoll, fmt.Errorf("config: unknown execution mode %q (valid: %s)",
			s, strings.Join(execModeNames(), ", "))
	}
}
