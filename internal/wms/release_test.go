package wms

import (
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestEventModeRunQueueSlots pins two run-queue slots of an event-driven
// run against marks queued in the same instant. Each attempt's first hedge
// check runs from the run queue, behind an entry queued before the run
// started, so a timer that entry arms at the same delay fires first. And
// once the run has waited, the caller's continuation runs from the back of
// the run queue, behind a process woken by the same job settlement as the
// engine's watcher.
func TestEventModeRunQueueSlots(t *testing.T) {
	const hedgeAfter = time.Second
	s := newModeStack(t, "decentralized", nil)
	s.eng.HedgeAfter = hedgeAfter
	s.eng.HedgeMax = 1
	tr := trace.New(s.env)
	wf := chain(t, 1)
	var order []string
	var d *dagRun
	s.env.Defer(func() {
		// Queued before the run starts, so it runs ahead of the first
		// hedge check and its timer fires first.
		s.env.Defer(func() {
			s.env.After(hedgeAfter, func() {
				hedges, _ := hedgeCounts(tr, wf.Name)
				order = append(order, "mark-hedges="+strconv.Itoa(hedges))
			})
		})
		var err error
		if d, err = s.eng.prepare(wf, AssignAll(ModeNative), nil); err != nil {
			t.Error(err)
			return
		}
		d.done = func(_ *RunResult, err error) {
			if err != nil {
				t.Error(err)
			}
			order = append(order, "done")
			s.shutdown()
		}
		d.begin()
		job := d.tasks[0].flight.copies[0].job
		s.env.Go("mark", func(p *sim.Proc) {
			_ = s.pool.Wait(p, job)
			order = append(order, "mark-settled")
		})
	})
	s.env.Run()
	want := []string{"mark-hedges=0", "mark-settled", "done"}
	if !slices.Equal(order, want) {
		t.Errorf("order %v, want %v", order, want)
	}
	if hedges, wins := hedgeCounts(tr, wf.Name); hedges != 1 || wins != 0 {
		t.Errorf("hedges = %d, hedge wins = %d, want one hedge launched at %v and the primary to win",
			hedges, wins, hedgeAfter)
	}
}
