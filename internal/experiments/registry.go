package experiments

import (
	"fmt"
	"io"
	"reflect"
	"strings"
)

// Table is what every driver returns: a result that renders itself.
type Table interface {
	WriteTable(w io.Writer) error
}

// The experiment groups. cmd/repro's "all" target runs the paper group, its
// "ext" target the extension group.
const (
	GroupPaper = "paper"
	GroupExt   = "ext"
)

// Experiment is one entry of the experiment table.
type Experiment struct {
	Name  string // cmd/repro target
	Group string // GroupPaper or GroupExt
	Run   func(Options) Table
	// result is the driver's result type; tests name their cases after it.
	result reflect.Type
}

func entry[R Table](name, group string, run func(Options) R) Experiment {
	return Experiment{
		Name:   name,
		Group:  group,
		Run:    func(o Options) Table { return run(o) },
		result: reflect.TypeFor[R](),
	}
}

// experimentTable lists every experiment in output order.
var experimentTable = []Experiment{
	entry("config", GroupPaper, Config),
	entry("coldstart", GroupPaper, ColdStart),
	entry("fig1", GroupPaper, Fig1),
	entry("fig2", GroupPaper, Fig2),
	entry("fig5", GroupPaper, Fig5),
	entry("fig6", GroupPaper, Fig6),
	entry("datamove", GroupExt, DataMovement),
	entry("resize", GroupExt, Resizing),
	entry("redirect", GroupExt, Redirection),
	entry("clustering", GroupExt, Clustering),
	entry("montage", GroupExt, Montage),
	entry("isolation", GroupExt, Isolation),
	entry("placement", GroupExt, Placement),
	entry("chaos", GroupExt, Chaos),
	entry("overload", GroupExt, Overload),
	entry("traffic", GroupExt, Traffic),
	entry("trace", GroupExt, Trace),
	entry("execmode", GroupExt, ExecModeStudy),
	entry("scale", GroupExt, ScaleStudy),
}

// groupTargets names the target that runs each whole group.
var groupTargets = []struct{ group, target string }{
	{GroupPaper, "all"},
	{GroupExt, "ext"},
}

// Targets lists every target Select accepts: each group's experiments
// followed by the target that runs the whole group.
func Targets() []string {
	var out []string
	for _, g := range groupTargets {
		for _, e := range experimentTable {
			if e.Group == g.group {
				out = append(out, e.Name)
			}
		}
		out = append(out, g.target)
	}
	return out
}

// Select resolves a target to the experiments it runs, in output order: one
// experiment by name, or a whole group by its target. An unknown target is
// an error listing the valid ones.
func Select(target string) ([]Experiment, error) {
	group := ""
	for _, g := range groupTargets {
		if g.target == target {
			group = g.group
		}
	}
	var out []Experiment
	for _, e := range experimentTable {
		if e.Name == target || e.Group == group {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: unknown experiment %q (valid: %s)", target, strings.Join(Targets(), ", "))
	}
	return out, nil
}

// WriteSection prints one experiment's result the way cmd/repro does: a
// "== name ==" header, the table, and a blank line.
func WriteSection(w io.Writer, name string, t Table) error {
	fmt.Fprintf(w, "== %s ==\n", name)
	if err := t.WriteTable(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}
