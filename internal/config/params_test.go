package config

import (
	"testing"
	"time"
)

func TestDefaultMatchesPaperSetup(t *testing.T) {
	p := Default()
	// §V-A: four VMs — one submit/control-plane + three workers, 8 cores
	// and 32 GB each.
	if p.WorkerNodes != 3 || p.CoresPerNode != 8 || p.MemMBPerNode != 32*1024 {
		t.Errorf("cluster = %d nodes × %d cores × %d MB", p.WorkerNodes, p.CoresPerNode, p.MemMBPerNode)
	}
	// §V-B: 350×350 int64 matrices.
	if p.MatrixBytes != 350*350*8 {
		t.Errorf("MatrixBytes = %d", p.MatrixBytes)
	}
	// §V-C: 10 workflows × 10 tasks.
	if p.WorkflowsPerRun != 10 || p.TasksPerWorkflow != 10 {
		t.Errorf("workload = %d × %d", p.WorkflowsPerRun, p.TasksPerWorkflow)
	}
}

func TestDefaultInternallyConsistent(t *testing.T) {
	p := Default()
	if p.ImageBytes() <= 0 {
		t.Error("non-positive image size")
	}
	var sum int64
	for _, l := range p.ImageLayersBytes {
		if l <= 0 {
			t.Error("non-positive layer")
		}
		sum += l
	}
	if sum != p.ImageBytes() {
		t.Errorf("ImageBytes %d != layer sum %d", p.ImageBytes(), sum)
	}
	if p.PanicWindow >= p.StableWindow {
		t.Error("panic window not shorter than stable window")
	}
	if p.TaskCoreSeconds <= 0 || p.TaskJitterFrac < 0 || p.TaskJitterFrac >= 1 {
		t.Errorf("task params: %f ± %f", p.TaskCoreSeconds, p.TaskJitterFrac)
	}
	for name, d := range map[string]time.Duration{
		"ContainerCreate": p.ContainerCreate, "ContainerStart": p.ContainerStart,
		"ContainerStopRemove": p.ContainerStopRemove, "ColdStartAppInit": p.ColdStartAppInit,
		"NegotiationDelay": p.NegotiationDelay, "DAGManPoll": p.DAGManPoll,
		"AutoscalerTick": p.AutoscalerTick,
	} {
		if d <= 0 {
			t.Errorf("%s = %v", name, d)
		}
	}
	if !p.PerJobNegotiation {
		t.Error("per-job negotiation should be the calibrated default")
	}
}

func TestTaskWorkDriftMonotone(t *testing.T) {
	p := Default()
	if p.TaskWork(0) != p.TaskCoreSeconds {
		t.Errorf("TaskWork(0) = %f", p.TaskWork(0))
	}
	if p.TaskWork(100) <= p.TaskWork(0) {
		t.Error("drift not monotone")
	}
	// The Fig. 1 drift stays mild: the paper's per-task times grow a few
	// percent over the 160-task sweep, so the demand must stay well under
	// 1.2× base.
	if p.TaskWork(160) > p.TaskCoreSeconds*1.2 {
		t.Errorf("drift too aggressive: %f at 160 tasks", p.TaskWork(160))
	}
}

func TestColdStartBudgetMatchesPaper(t *testing.T) {
	// The components of a warm-image cold start must land near the paper's
	// 1.48 s: schedule + create + start + app init + probe.
	p := Default()
	total := p.SchedulerLatency + p.ContainerCreate + p.ContainerStart +
		p.ColdStartAppInit + p.ReadinessProbeInterval
	if total < 1200*time.Millisecond || total > 1700*time.Millisecond {
		t.Errorf("cold-start budget = %v, want ≈1.48s", total)
	}
}
