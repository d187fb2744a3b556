package wms

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/sim"
)

func TestProvenanceRoundTrip(t *testing.T) {
	s := newStack(t, nil)
	wf := chain(t, 3)
	var res *RunResult
	s.env.Go("main", func(p *sim.Proc) {
		r, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeNative))
		if err != nil {
			t.Error(err)
		}
		res = r
		s.shutdown()
	})
	s.env.Run()
	if res == nil {
		t.Fatal("no result")
	}

	var buf bytes.Buffer
	if err := res.WriteProvenance(&buf, wf); err != nil {
		t.Fatal(err)
	}
	var p provenance
	if err := json.Unmarshal(buf.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if p.Workflow != "chain" || len(p.Tasks) != 3 {
		t.Fatalf("provenance = %+v", p)
	}
	if p.ModeCounts["native"] != 3 {
		t.Errorf("mode counts = %v", p.ModeCounts)
	}
	if p.MakespanSec <= 0 || p.FinishedSec <= p.StartedSec {
		t.Errorf("timing fields: %+v", p)
	}
	// Declaration order preserved when the workflow is supplied.
	for i, id := range wf.TaskIDs() {
		if p.Tasks[i].ID != id {
			t.Errorf("task order: got %s at %d, want %s", p.Tasks[i].ID, i, id)
		}
	}
	for _, tp := range p.Tasks {
		if tp.ExecSec <= 0 || tp.QueuedSec < 0 {
			t.Errorf("task %s times: %+v", tp.ID, tp)
		}
		if tp.FinishedSec <= tp.SubmittedSec {
			t.Errorf("task %s duration non-positive", tp.ID)
		}
	}
	if p.TotalRetries != 0 {
		t.Errorf("retries = %d on a clean run", p.TotalRetries)
	}
}

func TestProvenanceWithoutWorkflowSortsByStart(t *testing.T) {
	s := newStack(t, nil)
	wf := chain(t, 3)
	var res *RunResult
	s.env.Go("main", func(p *sim.Proc) {
		r, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeNative))
		if err != nil {
			t.Error(err)
		}
		res = r
		s.shutdown()
	})
	s.env.Run()
	var buf bytes.Buffer
	if err := res.WriteProvenance(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var p provenance
	if err := json.Unmarshal(buf.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(p.Tasks); i++ {
		if p.Tasks[i].StartedSec < p.Tasks[i-1].StartedSec {
			t.Errorf("tasks not sorted by start: %v then %v", p.Tasks[i-1], p.Tasks[i])
		}
	}
}
