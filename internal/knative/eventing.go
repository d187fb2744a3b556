package knative

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// This file models Knative Eventing (§II-B: "with components like Serving
// and Eventing, Knative offers ... flexible event management"): a broker on
// the control-plane node routes CloudEvents-like records to subscribed
// triggers. The integration layer uses it to make workflows *dynamic* —
// submitted in response to events such as data arrival — rather than only
// batch-submitted (the paper's title emphasis).

// Event is a CloudEvents-style record.
type Event struct {
	// Type is the reverse-DNS event type triggers filter on
	// (e.g. "dev.repro.file.arrived").
	Type string
	// Source identifies the producer.
	Source string
	// Subject names the entity the event concerns (e.g. an LFN).
	Subject string
	// DataBytes is the payload size carried with the event.
	DataBytes int64
}

// Handler consumes a delivered event. It runs from the run queue at the
// slot where a process spawned at dispatch would first run, and it must
// not block: a handler that waits (invokes a function, runs a workflow)
// uses the continuation forms, or spawns its own process.
type Handler func(ev Event)

// Trigger subscribes a handler to events of one type ("" matches all),
// optionally narrowed to subjects with a given prefix.
type Trigger struct {
	TypeMatch string
	// SubjectPrefix, when non-empty, delivers only events whose Subject
	// starts with it (e.g. one workflow's "<name>/" task namespace).
	SubjectPrefix string
	Handler       Handler
}

func (tr *Trigger) matches(ev Event) bool {
	if tr.TypeMatch != "" && tr.TypeMatch != ev.Type {
		return false
	}
	return tr.SubjectPrefix == "" || strings.HasPrefix(ev.Subject, tr.SubjectPrefix)
}

// Broker is an eventing broker hosted on the control-plane node. Events
// are accepted into a store-and-forward queue and dispatched asynchronously
// to every matching trigger, each delivery a continuation of its own.
type Broker struct {
	kn         *Knative
	name       string
	queue      *sim.Chan[Event]
	triggers   []*Trigger
	deliveries []*delivery    // recycled, for dispatch
	pubs       []*publication // recycled, for publish
	stopped    bool
}

// NewBroker creates a broker and starts its dispatch: its first drain
// takes the run-queue slot of a process spawned now.
func (kn *Knative) NewBroker(name string) *Broker {
	b := &Broker{kn: kn, name: name}
	b.queue = sim.NewUnbounded[Event](kn.env, b.dispatch)
	kn.brokers = append(kn.brokers, b)
	kn.env.Defer(b.dispatch)
	return b
}

// Subscribe registers a trigger for events of type typeMatch whose Subject
// has the given prefix; an empty filter matches everything.
func (b *Broker) Subscribe(typeMatch, subjectPrefix string, h Handler) *Trigger {
	tr := &Trigger{TypeMatch: typeMatch, SubjectPrefix: subjectPrefix, Handler: h}
	b.triggers = append(b.triggers, tr)
	return tr
}

// Unsubscribe removes a trigger; later events are no longer delivered to it.
// Deliveries already fanned out keep running.
func (b *Broker) Unsubscribe(tr *Trigger) {
	if i := slices.Index(b.triggers, tr); i >= 0 {
		b.triggers = slices.Delete(b.triggers, i, i+1)
	}
}

// Publish sends an event to the broker from the given node, paying the
// ingress hop, and returns once the broker has accepted it (delivery is
// asynchronous). It is PublishThen's path with the calling process's
// resume, and one park.
func (b *Broker) Publish(p *sim.Proc, fromNode string, ev Event) error {
	pub := b.publish(fromNode, ev, nil, p.Resumer())
	p.Await()
	err := pub.err
	b.free(pub)
	return err
}

// PublishThen is Publish's continuation form: then, when non-nil, gets
// Publish's result where a process blocked in Publish would resume, at
// once when the broker is already shut down. A steady stream of
// publications allocates nothing.
func (b *Broker) PublishThen(fromNode string, ev Event, then func(error)) {
	b.publish(fromNode, ev, then, nil)
}

// publication is one event on its way into the broker: the ingress
// message, then the payload transfer. Publications are recycled, and each
// binds its steps once.
type publication struct {
	b      *Broker
	from   string
	ev     Event
	err    error
	then   func(error) // PublishThen's continuation
	resume func()      // a process parked in Publish; it frees the struct
	// sent runs when the ingress message arrives, accept when the payload
	// has too.
	sent, accept func()
}

// publish starts a publication for a continuation (then) or for a process
// (resume): the message hop from the publisher's node, then the payload.
func (b *Broker) publish(from string, ev Event, then func(error), resume func()) *publication {
	var pub *publication
	if n := len(b.pubs); n > 0 {
		pub = b.pubs[n-1]
		b.pubs[n-1] = nil
		b.pubs = b.pubs[:n-1]
	} else {
		pub = &publication{b: b}
		pub.sent = func() {
			if pub.ev.DataBytes > 0 {
				b.kn.cl.Net.TransferThen(pub.from, cluster.SubmitNodeName, pub.ev.DataBytes, pub.accept)
				return
			}
			pub.accept()
		}
		pub.accept = pub.accepted
	}
	pub.from, pub.ev, pub.then, pub.resume = from, ev, then, resume
	if b.stopped {
		pub.finish(fmt.Errorf("knative: broker %s is shut down", b.name))
	} else {
		b.kn.cl.Net.MessageThen(from, cluster.SubmitNodeName, pub.sent)
	}
	return pub
}

// accepted enqueues the event once it has reached the broker. The ingress
// hop took time; the broker may have shut down in the meantime, closing
// the queue. Sending on the closed queue would panic, so the publisher gets
// an error instead.
func (pub *publication) accepted() {
	b := pub.b
	if b.stopped {
		pub.finish(fmt.Errorf("knative: broker %s shut down during publish", b.name))
		return
	}
	b.queue.Send(pub.ev)
	pub.finish(nil)
}

// finish hands the result to the publisher: a parked process reads it and
// frees the struct, a continuation gets it after the struct is freed.
func (pub *publication) finish(err error) {
	if pub.resume != nil {
		pub.err = err
		pub.resume()
		return
	}
	then := pub.then
	pub.b.free(pub)
	if then != nil {
		then(err)
	}
}

func (b *Broker) free(pub *publication) {
	pub.from, pub.ev, pub.err, pub.then, pub.resume = "", Event{}, nil, nil, nil
	b.pubs = append(b.pubs, pub)
}

// dispatch drains the queue, fanning each event out to matching triggers.
func (b *Broker) dispatch() {
	for {
		ev, ok := b.queue.Recv()
		if !ok {
			return
		}
		for _, tr := range b.triggers {
			if !tr.matches(ev) {
				continue
			}
			d := b.newDelivery()
			d.tr, d.ev = tr, ev
			b.kn.env.Defer(d.run)
		}
	}
}

// delivery is one event on its way to one trigger. Deliveries are
// recycled, and each binds its run once, so a steady publish→deliver cycle
// allocates nothing.
type delivery struct {
	b   *Broker
	tr  *Trigger
	ev  Event
	run func() // d.deliver, bound once
}

func (b *Broker) newDelivery() *delivery {
	if n := len(b.deliveries); n > 0 {
		d := b.deliveries[n-1]
		b.deliveries[n-1] = nil
		b.deliveries = b.deliveries[:n-1]
		return d
	}
	d := &delivery{b: b}
	d.run = d.deliver
	return d
}

// deliver recycles d and runs the trigger's handler on its event.
func (d *delivery) deliver() {
	tr, ev := d.tr, d.ev
	d.tr, d.ev = nil, Event{}
	d.b.deliveries = append(d.b.deliveries, d)
	tr.Handler(ev)
}

// shutdown closes the queue. Events already accepted stay in the queue and
// are still dispatched (sim.Chan drains buffered values before reporting
// closed); publications still in their ingress hop observe the stop when
// it ends and report an error instead of a send on the closed queue.
func (b *Broker) shutdown() {
	if !b.stopped {
		b.stopped = true
		b.queue.Close()
	}
}
