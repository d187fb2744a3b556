package experiments

import (
	"fmt"
	"io"
	"reflect"
	"strings"

	"repro/internal/metrics"
)

// The experiment groups, each named by the target that runs all of it:
// the paper's evaluation and the extension studies.
const (
	paper = "all"
	ext   = "ext"
)

// Experiment is one entry of the experiment table.
type Experiment struct {
	Name  string // cmd/repro target
	Group string // the target of its group, paper or ext
	run   func(o Options) report
}

// experimentTable lists every experiment in output order, group by group.
var experimentTable = []Experiment{
	{"config", paper, runConfig},
	{"coldstart", paper, coldStart.run},
	{"fig1", paper, fig1.run},
	{"fig2", paper, fig2.run},
	{"fig5", paper, fig5.run},
	{"fig6", paper, fig6.run},
	{"datamove", ext, dataMovement.run},
	{"resize", ext, resizing.run},
	{"redirect", ext, redirection.run},
	{"clustering", ext, clustering.run},
	{"montage", ext, montage.run},
	{"isolation", ext, isolation.run},
	{"placement", ext, placement.run},
	{"chaos", ext, chaos.run},
	{"overload", ext, overload.run},
	{"traffic", ext, traffic.run},
	{"trace", ext, traceStudy.run},
	{"execmode", ext, execMode.run},
	{"scale", ext, scale.run},
}

// Targets lists every target Select accepts: each group's experiments
// followed by the target that runs the whole group.
func Targets() []string {
	var out []string
	for i, e := range experimentTable {
		out = append(out, e.Name)
		if i+1 == len(experimentTable) || experimentTable[i+1].Group != e.Group {
			out = append(out, e.Group)
		}
	}
	return out
}

// Select resolves a target to the experiments it runs, in output order: one
// experiment by name, or a whole group by its target. An unknown target is
// an error listing the valid ones.
func Select(target string) ([]Experiment, error) {
	var out []Experiment
	for _, e := range experimentTable {
		if e.Name == target || e.Group == target {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: unknown experiment %q (valid: %s)", target, strings.Join(Targets(), ", "))
	}
	return out, nil
}

// WriteSection runs one experiment and prints it the way cmd/repro does: a
// "== name ==" header, the table, and a blank line.
func WriteSection(w io.Writer, e Experiment, o Options) error {
	fmt.Fprintf(w, "== %s ==\n", e.Name)
	if err := e.run(o).write(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// report is one experiment's result, ready to print: a table with one line
// per row, then a note. The trace study prints critical paths rather than
// rows, so it renders itself instead.
type report struct {
	rows   any // a slice of row structs
	note   string
	render func(w io.Writer) error
}

// write renders the report. Each field of the row struct tagged
// `col:"name"` is a column, formatted as metrics.Table formats it unless a
// `fmt` tag gives its format; an untagged struct field contributes its own
// columns in place, and any other field is not printed.
func (r report) write(w io.Writer) error {
	if r.render != nil {
		return r.render(w)
	}
	rows := reflect.ValueOf(r.rows)
	var header []string
	columns(reflect.New(rows.Type().Elem()).Elem(), func(name string, _ any) { header = append(header, name) })
	tbl := metrics.NewTable(header...)
	for i := 0; i < rows.Len(); i++ {
		var cells []any
		columns(rows.Index(i), func(_ string, cell any) { cells = append(cells, cell) })
		tbl.AddRow(cells...)
	}
	if err := tbl.Write(w); err != nil {
		return err
	}
	_, err := io.WriteString(w, r.note)
	return err
}

// columns calls f with the name and cell of each column of the row struct
// v, in field order.
func columns(v reflect.Value, f func(name string, cell any)) {
	for i := 0; i < v.NumField(); i++ {
		field := v.Type().Field(i)
		name, ok := field.Tag.Lookup("col")
		switch {
		case ok:
			cell := v.Field(i).Interface()
			if format := field.Tag.Get("fmt"); format != "" {
				cell = fmt.Sprintf(format, cell)
			}
			f(name, cell)
		case field.Type.Kind() == reflect.Struct:
			columns(v.Field(i), f)
		}
	}
}
