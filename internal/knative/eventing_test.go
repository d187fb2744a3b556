package knative

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func TestBrokerDeliversToMatchingTriggers(t *testing.T) {
	f := newFixture(t)
	broker := f.kn.NewBroker("default")
	var fileEvents, allEvents []Event
	broker.Subscribe("dev.repro.file.arrived", "", func(ev Event) {
		fileEvents = append(fileEvents, ev)
	})
	broker.Subscribe("", "", func(ev Event) {
		allEvents = append(allEvents, ev)
	})
	f.env.Go("producer", func(p *sim.Proc) {
		_ = broker.Publish(p, "worker1", Event{Type: "dev.repro.file.arrived", Subject: "a.dat"})
		_ = broker.Publish(p, "worker2", Event{Type: "dev.repro.job.done", Subject: "j1"})
		p.Sleep(time.Second)
		f.kn.Shutdown()
	})
	f.env.Run()
	if len(fileEvents) != 1 || fileEvents[0].Subject != "a.dat" {
		t.Errorf("file trigger got %v", fileEvents)
	}
	if len(allEvents) != 2 {
		t.Errorf("audit trigger got %d events, want 2", len(allEvents))
	}
}

func TestBrokerHandlersRunConcurrently(t *testing.T) {
	f := newFixture(t)
	broker := f.kn.NewBroker("default")
	var done []time.Duration
	broker.Subscribe("tick", "", func(ev Event) {
		f.env.Go("slow", func(p *sim.Proc) {
			p.Sleep(10 * time.Second)
			done = append(done, p.Now())
		})
	})
	f.env.Go("producer", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			_ = broker.Publish(p, cluster.SubmitNodeName, Event{Type: "tick"})
		}
		p.Sleep(15 * time.Second)
		f.kn.Shutdown()
	})
	f.env.Run()
	if len(done) != 3 {
		t.Fatalf("handlers completed = %d", len(done))
	}
	for _, d := range done {
		if d > 11*time.Second {
			t.Errorf("handler finished at %v; deliveries serialized", d)
		}
	}
}

func TestBrokerEventPayloadChargesNetwork(t *testing.T) {
	f := newFixture(t)
	broker := f.kn.NewBroker("default")
	broker.Subscribe("", "", func(ev Event) {})
	f.env.Go("producer", func(p *sim.Proc) {
		start := p.Now()
		_ = broker.Publish(p, "worker1", Event{Type: "big", DataBytes: 125_000_000}) // 1s at 1Gbps... worker egress is 10Gbps
		if p.Now() == start {
			t.Error("payload transfer was free")
		}
		f.kn.Shutdown()
	})
	f.env.Run()
}

func TestPublishAfterShutdownFails(t *testing.T) {
	f := newFixture(t)
	broker := f.kn.NewBroker("default")
	f.env.Go("producer", func(p *sim.Proc) {
		f.kn.Shutdown()
		if err := broker.Publish(p, "worker1", Event{Type: "x"}); err == nil {
			t.Error("publish after shutdown succeeded")
		}
	})
	f.env.Run()
}

// TestEventTriggeredInvocation is the dynamic-workflow story end to end:
// a data-arrival event triggers a function invocation through the broker.
func TestEventTriggeredInvocation(t *testing.T) {
	f := newFixture(t)
	var served int
	f.env.Go("main", func(p *sim.Proc) {
		spec := baseSpec()
		spec.MinScale = 1
		svc, err := f.kn.Deploy(p, spec)
		if err != nil {
			t.Error(err)
			return
		}
		broker := f.kn.NewBroker("default")
		broker.Subscribe("dev.repro.file.arrived", "", func(ev Event) {
			f.env.Go("on-data", func(hp *sim.Proc) {
				if _, err := svc.Invoke(hp, req(0.42)); err == nil {
					served++
				}
			})
		})
		for i := 0; i < 4; i++ {
			_ = broker.Publish(p, "worker2", Event{Type: "dev.repro.file.arrived"})
			p.Sleep(time.Second)
		}
		p.Sleep(10 * time.Second)
		f.kn.Shutdown()
	})
	f.env.Run()
	if served != 4 {
		t.Errorf("event-triggered invocations = %d, want 4", served)
	}
}

// TestShutdownRacesInflightPublish pins the store-and-forward contract when
// shutdown lands while a Publish is parked in its ingress network hop: the
// resumed publisher must get an error back — not panic on the closed queue —
// and the event must reach no trigger: a match-all sink sees every event
// the broker accepted (TestShutdownDrainsAcceptedEvents), so none was.
func TestShutdownRacesInflightPublish(t *testing.T) {
	f := newFixture(t)
	broker := f.kn.NewBroker("default")
	delivered := 0
	broker.Subscribe("", "", func(ev Event) { delivered++ })
	var raceErr error
	f.env.Go("producer", func(p *sim.Proc) {
		// Blocks in the ingress hop; the stopper shuts the broker down in
		// the same tick, so the publisher resumes against a closed queue.
		raceErr = broker.Publish(p, "worker1", Event{Type: "x"})
	})
	f.env.Go("stopper", func(p *sim.Proc) {
		f.kn.Shutdown()
	})
	f.env.Run()
	if raceErr == nil {
		t.Error("publish that raced shutdown reported success")
	}
	if delivered != 0 {
		t.Errorf("delivered = %d events from a refused publish", delivered)
	}
}

// TestShutdownDrainsAcceptedEvents pins the other half of the contract:
// events the broker accepted before shutdown are still dispatched — closing
// the queue drains it, it does not drop buffered events.
func TestShutdownDrainsAcceptedEvents(t *testing.T) {
	f := newFixture(t)
	broker := f.kn.NewBroker("default")
	delivered := 0
	broker.Subscribe("", "", func(ev Event) { delivered++ })
	f.env.Go("producer", func(p *sim.Proc) {
		_ = broker.Publish(p, "worker1", Event{Type: "a"})
		_ = broker.Publish(p, "worker1", Event{Type: "b"})
		// Shut down immediately: at least the second event is still queued
		// (the dispatch loop has not run since its acceptance).
		f.kn.Shutdown()
	})
	f.env.Run()
	// The sink matches every event: each accepted one is dispatched once.
	if delivered != 2 {
		t.Errorf("delivered = %d, want 2: accepted events dropped at shutdown", delivered)
	}
}

func TestSubjectPrefixFilterAndUnsubscribe(t *testing.T) {
	f := newFixture(t)
	broker := f.kn.NewBroker("default")
	var wfA, all []string
	trig := broker.Subscribe("task.settled", "wfA/", func(ev Event) {
		wfA = append(wfA, ev.Subject)
	})
	broker.Subscribe("", "", func(ev Event) {
		all = append(all, ev.Subject)
	})
	f.env.Go("producer", func(p *sim.Proc) {
		_ = broker.Publish(p, "worker1", Event{Type: "task.settled", Subject: "wfA/t1"})
		_ = broker.Publish(p, "worker1", Event{Type: "task.settled", Subject: "wfB/t1"})
		_ = broker.Publish(p, "worker1", Event{Type: "other", Subject: "wfA/t2"})
		p.Sleep(time.Second)
		broker.Unsubscribe(trig)
		_ = broker.Publish(p, "worker1", Event{Type: "task.settled", Subject: "wfA/t3"})
		p.Sleep(time.Second)
		f.kn.Shutdown()
	})
	f.env.Run()
	if len(wfA) != 1 || wfA[0] != "wfA/t1" {
		t.Errorf("filtered trigger got %v, want [wfA/t1]", wfA)
	}
	if len(all) != 4 {
		t.Errorf("audit trigger got %d events, want 4", len(all))
	}
}

// TestDeliveryCycleAllocatesNothing: a steady publish→deliver cycle, one
// event from a worker fanned out to two triggers whose handlers wait a
// millisecond, allocates nothing once the broker's publications and
// deliveries, the process pool and the queues are warm.
func TestDeliveryCycleAllocatesNothing(t *testing.T) {
	f := newFixture(t)
	broker := f.kn.NewBroker("default")
	handled := 0
	count := func() { handled++ }
	handler := func(ev Event) { f.env.Delay(time.Millisecond, count) }
	broker.Subscribe("tick", "", handler)
	broker.Subscribe("", "", handler)
	f.env.Go("producer", func(p *sim.Proc) {
		for {
			_ = broker.Publish(p, "worker1", Event{Type: "tick", Subject: "s"})
			p.Sleep(10 * time.Millisecond)
		}
	})
	f.env.RunFor(time.Second) // warm pools
	before := handled
	avg := testing.AllocsPerRun(100, func() {
		f.env.RunFor(10 * time.Millisecond)
	})
	if avg != 0 {
		t.Errorf("publish→deliver cycle allocates %.1f times, want 0", avg)
	}
	if handled == before {
		t.Error("no event was delivered during the measured runs")
	}
}

// TestPublishThenReportsWhereProcessResumes: PublishThen hands its result
// to the continuation at the instant Publish returns to a process: nil on
// acceptance after the ingress hop and the payload transfer, the shutdown
// error when the broker stops during the hop, and the error at once on a
// broker already shut down.
func TestPublishThenReportsWhereProcessResumes(t *testing.T) {
	f := newFixture(t)
	broker := f.kn.NewBroker("default")
	sunk := 0
	broker.Subscribe("", "", func(Event) { sunk++ })
	var procAt, thenAt time.Duration
	var thenErr, raceErr, stoppedErr error
	f.env.Go("producer", func(p *sim.Proc) {
		ev := Event{Type: "x", DataBytes: 1 << 20}
		broker.PublishThen("worker1", ev, func(err error) { thenErr, thenAt = err, f.env.Now() })
		if err := broker.Publish(p, "worker1", ev); err != nil {
			t.Error(err)
		}
		procAt = p.Now()
		broker.PublishThen("worker1", ev, func(err error) { raceErr = err })
		f.kn.Shutdown()
		p.Sleep(time.Second)
		called := false
		broker.PublishThen("worker1", ev, func(err error) { stoppedErr, called = err, true })
		if !called {
			t.Error("PublishThen on a stopped broker did not report at once")
		}
	})
	f.env.Run()
	if thenErr != nil || thenAt != procAt || thenAt == 0 {
		t.Errorf("continuation got %v at %v, want nil at %v (where Publish returned)", thenErr, thenAt, procAt)
	}
	if raceErr == nil || stoppedErr == nil {
		t.Errorf("publishes against a stopping broker reported %v and %v, want errors", raceErr, stoppedErr)
	}
	if sunk != 2 {
		t.Errorf("sink got %d events, want the 2 the broker accepted", sunk)
	}
}
