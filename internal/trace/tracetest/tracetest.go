// Package tracetest provides assertion helpers over recorded traces: span
// existence, parent/child nesting, pairwise non-overlap of intervals that
// model exclusive resources (condor slots), container-lifecycle completeness,
// and byte-identical golden-trace comparison for the determinism suite.
package tracetest

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/trace"
)

// T is the minimal testing surface the helpers need; *testing.T satisfies it.
type T interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// Match selects spans by substrate, operation name, and label values. Empty
// fields match anything.
type Match struct {
	Substrate string
	Name      string
	Labels    []trace.Label
}

func (m Match) ok(sp *trace.Span) bool {
	if m.Substrate != "" && sp.Substrate() != m.Substrate {
		return false
	}
	if m.Name != "" && sp.Name() != m.Name {
		return false
	}
	for _, want := range m.Labels {
		got, has := sp.Label(want.Key)
		if !has || got != want.Value {
			return false
		}
	}
	return true
}

func (m Match) String() string {
	s := m.Substrate + "/" + m.Name
	for _, l := range m.Labels {
		s += fmt.Sprintf(" %s=%s", l.Key, l.Value)
	}
	return s
}

// Find returns every span matching m, in creation order.
func Find(tr *trace.Tracer, m Match) []*trace.Span {
	var out []*trace.Span
	for _, sp := range tr.Spans() {
		if m.ok(sp) {
			out = append(out, sp)
		}
	}
	return out
}

// MustFind asserts at least one span matches m and returns the matches.
func MustFind(t T, tr *trace.Tracer, m Match) []*trace.Span {
	t.Helper()
	spans := Find(tr, m)
	if len(spans) == 0 {
		t.Fatalf("tracetest: no span matches %s (of %d spans)", m, tr.Len())
	}
	return spans
}

// AncestorLabel walks from sp up the parent chain (inclusive) and returns
// the first value of the named label.
func AncestorLabel(tr *trace.Tracer, sp *trace.Span, key string) (string, bool) {
	for cur := sp; cur != nil; cur = tr.Span(cur.Parent()) {
		if v, ok := cur.Label(key); ok {
			return v, true
		}
	}
	return "", false
}

// AssertEnded asserts every matching span was closed — an unended span is a
// leak (its End path was skipped).
func AssertEnded(t T, tr *trace.Tracer, m Match) {
	t.Helper()
	for _, sp := range Find(tr, m) {
		if !sp.Ended() {
			t.Errorf("tracetest: span #%d %s/%s never ended (labels %v)",
				sp.ID(), sp.Substrate(), sp.Name(), sp.Labels())
		}
	}
}

// AssertNoOverlap asserts the spans' intervals are pairwise disjoint.
// Touching endpoints (one span ending exactly when the next starts) do not
// count as overlap — a freed condor slot may be re-claimed at the same
// virtual instant.
func AssertNoOverlap(t T, spans []*trace.Span, what string) {
	t.Helper()
	sorted := append([]*trace.Span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Start() != sorted[j].Start() {
			return sorted[i].Start() < sorted[j].Start()
		}
		return sorted[i].ID() < sorted[j].ID()
	})
	for i := 1; i < len(sorted); i++ {
		prev, cur := sorted[i-1], sorted[i]
		if !prev.Ended() {
			t.Errorf("tracetest: %s: span #%d never ended", what, prev.ID())
			continue
		}
		if cur.Start() < prev.EndTime() {
			t.Errorf("tracetest: %s: span #%d [%v,%v] overlaps span #%d [%v,%v]",
				what, cur.ID(), cur.Start(), cur.EndTime(), prev.ID(), prev.Start(), prev.EndTime())
		}
	}
}

// AssertSlotExclusive groups the matching spans by the named exclusivity
// label (looked up on the span or its ancestors) and asserts each group is
// overlap-free — e.g. no two condor payloads on one slot at once.
func AssertSlotExclusive(t T, tr *trace.Tracer, m Match, labelKey string) {
	t.Helper()
	groups := make(map[string][]*trace.Span)
	for _, sp := range MustFind(t, tr, m) {
		key, ok := AncestorLabel(tr, sp, labelKey)
		if !ok {
			t.Errorf("tracetest: span #%d %s/%s has no %q label on its ancestor chain",
				sp.ID(), sp.Substrate(), sp.Name(), labelKey)
			continue
		}
		groups[key] = append(groups[key], sp)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		AssertNoOverlap(t, groups[k], fmt.Sprintf("%s %s=%s", m, labelKey, k))
	}
}

// AssertContainerLifecycles asserts the crt container lifecycle leaks
// nothing: every container that was created (its create span carries the
// unique container ref) was also started and stop-removed exactly once.
func AssertContainerLifecycles(t T, tr *trace.Tracer) {
	t.Helper()
	count := func(name string) map[string]int {
		m := make(map[string]int)
		for _, sp := range Find(tr, Match{Substrate: "crt", Name: name}) {
			if ref, ok := sp.Label("container"); ok {
				m[ref]++
			}
		}
		return m
	}
	created, started, removed := count("create"), count("start"), count("stop-remove")
	refs := make([]string, 0, len(created))
	for ref := range created {
		refs = append(refs, ref)
	}
	sort.Strings(refs)
	for _, ref := range refs {
		if created[ref] != 1 {
			t.Errorf("tracetest: container %s created %d times", ref, created[ref])
		}
		if started[ref] != 1 {
			t.Errorf("tracetest: container %s: %d start spans, want 1", ref, started[ref])
		}
		if removed[ref] != 1 {
			t.Errorf("tracetest: container %s leaked: %d stop-remove spans, want 1", ref, removed[ref])
		}
	}
	for ref := range removed {
		if created[ref] == 0 {
			t.Errorf("tracetest: container %s removed but never created", ref)
		}
	}
}

// AssertAttemptSpans asserts the task has exactly want wms/task attempt
// spans, numbered 1..want in submission order.
func AssertAttemptSpans(t T, tr *trace.Tracer, workflow, task string, want int) {
	t.Helper()
	spans := Find(tr, Match{Substrate: "wms", Name: "task", Labels: []trace.Label{
		trace.L("workflow", workflow), trace.L("task", task),
	}})
	if len(spans) != want {
		t.Errorf("tracetest: task %s/%s has %d attempt spans, want %d", workflow, task, len(spans), want)
		return
	}
	for i, sp := range spans {
		if got, _ := sp.Label("attempt"); got != fmt.Sprint(i+1) {
			t.Errorf("tracetest: task %s/%s span #%d has attempt=%s, want %d", workflow, task, sp.ID(), got, i+1)
		}
	}
}

// AssertSameTrace asserts two Chrome exports are byte-identical, reporting
// the first differing line — the golden-trace determinism check.
func AssertSameTrace(t T, a, b []byte) {
	t.Helper()
	if bytes.Equal(a, b) {
		return
	}
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(al[i], bl[i]) {
			t.Fatalf("tracetest: traces differ at line %d:\n  a: %s\n  b: %s", i+1, al[i], bl[i])
		}
	}
	t.Fatalf("tracetest: traces differ in length: %d vs %d lines", len(al), len(bl))
}
