package wms

import (
	"strings"
	"testing"
)

const sampleSpec = `{
  "name": "demo",
  "default_mode": "native",
  "tasks": [
    {"id": "a", "transformation": "matmul",
     "inputs": [{"lfn": "x.dat", "bytes": 100}],
     "outputs": [{"lfn": "y.dat", "bytes": 100}]},
    {"id": "b", "transformation": "matmul", "mode": "serverless",
     "inputs": [{"lfn": "y.dat", "bytes": 100}],
     "outputs": [{"lfn": "z.dat", "bytes": 100}],
     "deps": ["a"]}
  ]
}`

func TestLoadAndBuildSpec(t *testing.T) {
	spec, err := LoadSpec(strings.NewReader(sampleSpec))
	if err != nil {
		t.Fatal(err)
	}
	wf, assign, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if wf.Len() != 2 {
		t.Fatalf("Len = %d", wf.Len())
	}
	if got := wf.Parents("b"); len(got) != 1 || got[0] != "a" {
		t.Errorf("parents(b) = %v", got)
	}
	if assign("demo", "a") != ModeNative {
		t.Error("task a mode wrong")
	}
	if assign("demo", "b") != ModeServerless {
		t.Error("task b mode wrong")
	}
}

func TestLoadSpecErrors(t *testing.T) {
	cases := []string{
		``,
		`{}`,
		`{"name": "x"}`,
		`{"name": "x", "tasks": [], "bogus_field": 1}`,
		`{"name": "x", "tasks": [{"id": "a", "transformation": "t", "mode": "quantum"}]}`,
		`{"name": "x", "tasks": [{"id": "a", "transformation": "t", "deps": ["ghost"]}]}`,
	}
	for i, c := range cases {
		spec, err := LoadSpec(strings.NewReader(c))
		if err != nil {
			continue // rejected at parse time: fine
		}
		if _, _, err := spec.Build(); err == nil {
			t.Errorf("case %d accepted: %s", i, c)
		}
	}
}
