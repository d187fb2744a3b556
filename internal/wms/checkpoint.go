package wms

import (
	"fmt"

	"repro/internal/condor"
)

// Checkpointing models Pegasus's checkpoint/restart capability (§II-C:
// "fault-tolerance mechanisms, including task retry and checkpoint/restart
// ... very helpful for long-running scientific experiments").
//
// When Engine.Checkpoint is configured, native tasks execute in chunks of
// CheckpointEvery core-seconds; after each chunk the task writes a
// checkpoint file back to the submit node. A crash (probability
// CrashPerChunk rolled after every chunk) fails the condor job, but the
// retry resumes from the last checkpoint instead of from scratch — only
// the partial chunk is lost.
type Checkpoint struct {
	// Every is the checkpoint interval in core-seconds (0 disables
	// checkpointing; crashes then lose all progress).
	Every float64
	// CrashPerChunk is the probability a chunk boundary crashes the task,
	// modelling long-job mortality. 0 disables crash injection.
	CrashPerChunk float64
	// FileBytes is the checkpoint file size shipped to the submit node at
	// each boundary.
	FileBytes int64
}

// taskProgress persists a task's execution state across retries (the
// checkpoint file on the submit node).
type taskProgress struct {
	total float64 // service demand, drawn once so retries resume consistently
	done  float64
}

// runCheckpointed executes a native task body under the checkpoint policy.
// The engine's progress map carries state across condor job retries.
func (e *Engine) runCheckpointed(ctx *condor.ExecContext, name string, scale float64) error {
	if e.progress == nil {
		e.progress = make(map[string]*taskProgress)
	}
	st, ok := e.progress[name]
	if !ok {
		st = &taskProgress{total: e.Cl.NextTaskWork() * scale}
		e.progress[name] = st
	}
	rng := e.Env.Rand()
	const eps = 1e-9
	every := e.Checkpoint.Every
	if every <= 0 {
		every = st.total
	}
	for st.done < st.total-eps {
		chunk := every
		if rem := st.total - st.done; rem < chunk {
			chunk = rem
		}
		ctx.Node.Exec(ctx.Proc, chunk, 1)
		if e.Checkpoint.CrashPerChunk > 0 && rng.Float64() < e.Checkpoint.CrashPerChunk {
			// The crash loses the chunk that was executing.
			return fmt.Errorf("wms: task %s crashed mid-run (checkpointed at %.2f/%.2f core-s)", name, st.done, st.total)
		}
		st.done += chunk
		if e.Checkpoint.FileBytes > 0 { // ship the checkpoint file to the submit node
			e.Cl.Net.Transfer(ctx.Proc, ctx.Node.Name, "submit", e.Checkpoint.FileBytes)
		}
	}
	delete(e.progress, name)
	return nil
}

// checkpointingActive reports whether the engine should route native tasks
// through the checkpointed runner.
func (e *Engine) checkpointingActive() bool {
	return e.Checkpoint.Every > 0 || e.Checkpoint.CrashPerChunk > 0
}
