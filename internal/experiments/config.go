package experiments

// configRow is one model parameter of the §V-A setup with its provenance.
type configRow struct {
	Parameter  string `col:"parameter"`
	Value      any    `col:"value"`
	Provenance string `col:"provenance"`
}

// runConfig reports the parameters the other experiments run under.
func runConfig(o Options) report {
	p := o.Prm
	return report{rows: []configRow{
		{"worker nodes", p.WorkerNodes, "paper §V-A: 4 VMs, one is submit+control-plane"},
		{"cores per node", p.CoresPerNode, "paper §V-A"},
		{"memory per node (MB)", p.MemMBPerNode, "paper §V-A: 32 GB"},
		{"matrix size (bytes)", p.MatrixBytes, "paper §V-B: 350x350 int64"},
		{"task demand (core-s)", p.TaskCoreSeconds, "calibrated to Fig. 1 per-task times"},
		{"image size (bytes)", p.ImageBytes(), "typical slim python+numpy image"},
		{"container create", p.ContainerCreate, "calibrated to Fig. 1 docker overhead"},
		{"container start", p.ContainerStart, "calibrated to Fig. 1 docker overhead"},
		{"container stop+rm", p.ContainerStopRemove, "calibrated to Fig. 1 docker overhead"},
		{"cold start app init", p.ColdStartAppInit, "calibrated to the 1.48s cold start"},
		{"negotiator cycle", p.NegotiatorCycle, "calibrated to Fig. 6 absolute makespans"},
		{"shadow spawn", p.ShadowSpawn, "calibrated to Fig. 2 native slope"},
		{"submit uplink (B/s)", p.SubmitUplinkBps, "1 Gb/s; Fig. 2 container-slope bottleneck"},
		{"workflows per run", p.WorkflowsPerRun, "paper §V-C"},
		{"tasks per workflow", p.TasksPerWorkflow, "paper §V-C"},
	}}
}
