package wms

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseSpec drives the JSON workflow-spec parser and DAG builder with
// arbitrary input: whatever LoadSpec accepts must Build without panicking,
// and the built workflow must validate (acyclic, unique IDs, resolvable
// dependencies). Seeded from examples/ plus crafted edge cases.
func FuzzParseSpec(f *testing.F) {
	if demo, err := os.ReadFile(filepath.Join("..", "..", "examples", "specs", "demo.json")); err == nil {
		f.Add(demo)
	}
	f.Add([]byte(`{"name":"a","tasks":[{"id":"t","transformation":"x"}]}`))
	f.Add([]byte(`{"name":"a","default_mode":"serverless","tasks":[{"id":"t","transformation":"x","mode":"bogus"}]}`))
	f.Add([]byte(`{"name":"cycle","tasks":[{"id":"a","transformation":"x","deps":["b"]},{"id":"b","transformation":"x","deps":["a"]}]}`))
	f.Add([]byte(`{"name":"dup","tasks":[{"id":"a","transformation":"x"},{"id":"a","transformation":"x"}]}`))
	f.Add([]byte(`{"name":"ghost","tasks":[{"id":"a","transformation":"x","deps":["missing"]}]}`))
	f.Add([]byte(`{"name":"self","tasks":[{"id":"a","transformation":"x","deps":["a"]}]}`))
	f.Add([]byte(`{"name":"","tasks":[]}`))
	f.Add([]byte(`{"name":"neg","tasks":[{"id":"a","transformation":"x","work_scale":-3,"priority":-9,"inputs":[{"lfn":"f","bytes":-1}]}]}`))
	f.Add([]byte(`not json at all`))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := LoadSpec(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		wf, assign, err := spec.Build()
		if err != nil {
			return
		}
		if wf == nil || assign == nil {
			t.Fatal("Build returned nil workflow without error")
		}
		if err := wf.Validate(); err != nil {
			t.Fatalf("Build accepted a workflow that fails Validate: %v", err)
		}
		for _, id := range wf.TaskIDs() {
			assign(wf.Name, id) // must not panic on any built task
			for _, par := range wf.Parents(id) {
				if _, ok := wf.Task(par); !ok {
					t.Fatalf("task %q has unresolvable parent %q", id, par)
				}
			}
		}
	})
}
