package experiments

import (
	"io"

	"repro/internal/config"
	"repro/internal/metrics"
)

// ConfigResult is the §V-A software/hardware setup as encoded in the model
// parameters.
type ConfigResult struct {
	Prm config.Params
}

// Config reports the parameters the other experiments run under.
func Config(o Options) ConfigResult {
	return ConfigResult{Prm: o.Prm}
}

// WriteTable renders each parameter with its provenance.
func (r ConfigResult) WriteTable(w io.Writer) error {
	p := r.Prm
	tbl := metrics.NewTable("parameter", "value", "provenance")
	tbl.AddRow("worker nodes", p.WorkerNodes, "paper §V-A: 4 VMs, one is submit+control-plane")
	tbl.AddRow("cores per node", p.CoresPerNode, "paper §V-A")
	tbl.AddRow("memory per node (MB)", p.MemMBPerNode, "paper §V-A: 32 GB")
	tbl.AddRow("matrix size (bytes)", p.MatrixBytes, "paper §V-B: 350x350 int64")
	tbl.AddRow("task demand (core-s)", p.TaskCoreSeconds, "calibrated to Fig. 1 per-task times")
	tbl.AddRow("image size (bytes)", p.ImageBytes(), "typical slim python+numpy image")
	tbl.AddRow("container create", p.ContainerCreate, "calibrated to Fig. 1 docker overhead")
	tbl.AddRow("container start", p.ContainerStart, "calibrated to Fig. 1 docker overhead")
	tbl.AddRow("container stop+rm", p.ContainerStopRemove, "calibrated to Fig. 1 docker overhead")
	tbl.AddRow("cold start app init", p.ColdStartAppInit, "calibrated to the 1.48s cold start")
	tbl.AddRow("negotiator cycle", p.NegotiatorCycle, "calibrated to Fig. 6 absolute makespans")
	tbl.AddRow("shadow spawn", p.ShadowSpawn, "calibrated to Fig. 2 native slope")
	tbl.AddRow("submit uplink (B/s)", p.SubmitUplinkBps, "1 Gb/s; Fig. 2 container-slope bottleneck")
	tbl.AddRow("workflows per run", p.WorkflowsPerRun, "paper §V-C")
	tbl.AddRow("tasks per workflow", p.TasksPerWorkflow, "paper §V-C")
	return tbl.Write(w)
}
