package main

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestPrintSpans: -trace prints one line per ended span in (start, ID)
// order — start, substrate/name, duration, labels — and skips open spans.
func TestPrintSpans(t *testing.T) {
	env := sim.NewEnv(1)
	tr := trace.New(env)
	env.Go("main", func(p *sim.Proc) {
		p.Sleep(1500 * time.Millisecond)
		outer := tr.Start(nil, "crt", "create", trace.L("image", "matmul"), trace.L("node", "worker1"))
		p.Sleep(90 * time.Millisecond)
		outer.End()
		tr.Start(nil, "crt", "exec") // never ended
		tr.Start(nil, "wms", "release").End()
	})
	env.Run()
	var b strings.Builder
	printSpans(&b, tr)
	want := "        1.5s  crt/create                       90ms image=matmul node=worker1\n" +
		"       1.59s  wms/release                        0s\n\n"
	if b.String() != want {
		t.Errorf("printSpans =\n%q\nwant\n%q", b.String(), want)
	}
}

// TestBadFlagValuesFailFast: a bad -workflows or -mode value, or a
// -workflows, -chain or -mode set alongside -spec, is a flag error naming
// the flag, returned before anything runs, never a panic or a run of some
// other shape.
func TestBadFlagValuesFailFast(t *testing.T) {
	const demo = "../../examples/specs/demo.json"
	for _, args := range [][]string{
		{"-workflows", "-1"},
		{"-workflows", "0"},
		{"-mode", "mix:0,0,0"},
		{"-mode", "mix:NaN,1,1"},
		{"-mode", "mix:Inf,1,0"},
		{"-mode", "mix:1,-1,1"},
		{"-mode", "mix:1,1"},
		{"-mode", "bogus"},
		{"-workflows", "3", "-spec", demo},
		{"-chain", "3", "-spec", demo},
		{"-mode", "serverless", "-spec", demo},
	} {
		name := strings.ReplaceAll(strings.Join(args, " "), demo, "demo.json")
		t.Run(name, func(t *testing.T) {
			err := run(append([]string{"-fast"}, args...))
			var bad flagError
			if !errors.As(err, &bad) || !strings.Contains(err.Error(), args[0]) {
				t.Errorf("run(%q) = %v, want a flag error naming %s", args, err, args[0])
			}
		})
	}
}
