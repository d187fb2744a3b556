// Package trace is a deterministic span tracer for the simulated testbed.
//
// A Tracer is attached to a sim.Env and shared by every substrate through the
// environment (no global state): the workflow engine opens a span per
// workflow and per task attempt, condor records queue/shadow/transfer/claim
// phases, kube records pod bring-up, the container runtime records image
// pulls and the create→start→exec→stop lifecycle, knative records
// invocations with cold-start and queueing phases, and the storage services
// record staging I/O. All timestamps are virtual-clock readings, so a trace
// is bit-for-bit reproducible for a given seed — two same-seed runs export
// byte-identical traces, which the determinism suite asserts.
//
// Spans form a forest, and every Start names its parent: a span travels as
// data to the code that opens its children — in a condor job's spec and
// execution context, a knative request, or an argument of the storage,
// registry and container-runtime calls. A continuation has no process, so
// it passes the span its state carries. Each span is linked to its
// parent's children and to its root when it starts, so the analyzer and
// the exporter walk the forest without building an index.
//
// Substrates call trace.FromEnv and the nil tracer is a no-op. Start copies
// its labels, so a call site's label list stays on its stack: an untraced run
// allocates nothing for tracing. A label value that needs formatting is
// computed only when a tracer is attached.
package trace

import (
	"time"

	"repro/internal/sim"
)

// SpanID identifies a span within its trace. IDs are assigned sequentially
// from 1 in creation order; 0 means "no span" (a root's parent).
type SpanID int

// Label is one key/value annotation on a span.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Span is one timed interval of the simulation, attributed to a substrate
// and a named operation within it.
type Span struct {
	id        SpanID
	parent    SpanID
	substrate string
	name      string
	labels    []Label
	start     time.Duration
	end       time.Duration
	ended     bool
	tracer    *Tracer
	// root is the ID of the span's root ancestor (its own for a root).
	root SpanID
	// firstChild and lastChild delimit the span's children, linked through
	// nextSibling in creation order.
	firstChild, lastChild, nextSibling *Span
}

// ID returns the span's identifier.
func (sp *Span) ID() SpanID { return sp.id }

// Parent returns the parent span's ID (0 for roots).
func (sp *Span) Parent() SpanID { return sp.parent }

// Substrate returns the layer that emitted the span (wms, condor, kube,
// registry, crt, knative, storage, exec).
func (sp *Span) Substrate() string { return sp.substrate }

// Name returns the operation name within the substrate.
func (sp *Span) Name() string { return sp.name }

// Start returns the span's start time on the virtual clock.
func (sp *Span) Start() time.Duration { return sp.start }

// EndTime returns the span's end time; valid only once Ended.
func (sp *Span) EndTime() time.Duration { return sp.end }

// Ended reports whether the span has been closed.
func (sp *Span) Ended() bool { return sp != nil && sp.ended }

// Duration returns end−start for ended spans and 0 otherwise.
func (sp *Span) Duration() time.Duration {
	if sp == nil || !sp.ended {
		return 0
	}
	return sp.end - sp.start
}

// Labels returns the span's annotations in the order they were set.
func (sp *Span) Labels() []Label {
	if sp == nil {
		return nil
	}
	return sp.labels
}

// Label returns the value of the named label.
func (sp *Span) Label(key string) (string, bool) {
	if sp == nil {
		return "", false
	}
	for _, l := range sp.labels {
		if l.Key == key {
			return l.Value, true
		}
	}
	return "", false
}

// SetLabel adds or replaces a label. Safe on a nil span.
func (sp *Span) SetLabel(key, value string) {
	if sp == nil {
		return
	}
	for i, l := range sp.labels {
		if l.Key == key {
			sp.labels[i].Value = value
			return
		}
	}
	sp.labels = append(sp.labels, Label{Key: key, Value: value})
}

// End closes the span at the current virtual time. Ending an already-ended
// or nil span is a no-op, so cleanup paths may End unconditionally.
func (sp *Span) End() {
	if sp == nil || sp.ended {
		return
	}
	sp.ended = true
	sp.end = sp.tracer.env.Now()
}

// Tracer collects spans for one simulation environment.
type Tracer struct {
	env   *sim.Env
	spans []*Span
}

// New creates a tracer, attaches it to env, and returns it. Calling New
// twice on one environment replaces the earlier tracer for subsequent
// FromEnv lookups.
func New(env *sim.Env) *Tracer {
	t := &Tracer{env: env}
	env.SetTracer(t)
	return t
}

// FromEnv returns the tracer attached to env, or nil when tracing is off.
// All Tracer and Span methods are nil-safe, so a call site needs a guard
// only to skip formatting a label value.
func FromEnv(env *sim.Env) *Tracer {
	t, _ := env.Tracer().(*Tracer)
	return t
}

// Len returns the number of spans recorded so far.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// Spans returns the recorded spans in creation order, which is also their
// (start, ID) order — the canonical export order — because a span starts at
// the current virtual time and the clock never runs backwards. The slice is
// shared; callers must not mutate it.
func (t *Tracer) Spans() []*Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Span looks a span up by ID.
func (t *Tracer) Span(id SpanID) *Span {
	if t == nil || id < 1 || int(id) > len(t.spans) {
		return nil
	}
	return t.spans[id-1]
}

// Start opens a span under the given parent (nil = root) beginning at the
// current virtual time, and links it last among the parent's children.
// The labels are copied, so the caller's list never escapes. Safe on a nil
// tracer (returns nil).
func (t *Tracer) Start(parent *Span, substrate, name string, labels ...Label) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{
		id:        SpanID(len(t.spans) + 1),
		substrate: substrate,
		name:      name,
		labels:    append([]Label(nil), labels...),
		start:     t.env.Now(),
		tracer:    t,
	}
	sp.root = sp.id
	if parent != nil {
		sp.parent = parent.id
		sp.root = parent.root
		if parent.lastChild == nil {
			parent.firstChild = sp
		} else {
			parent.lastChild.nextSibling = sp
		}
		parent.lastChild = sp
	}
	t.spans = append(t.spans, sp)
	return sp
}
