// Eventdriven: the "dynamic HPC workflows" of the title. Data-arrival
// events (an instrument finishing a capture, a file landing) flow through a
// Knative Eventing broker; each one triggers planning and execution of a
// serverless analysis workflow — no operator submits anything. Arrivals are
// bursty, and the serverless platform absorbs the burst by scaling the
// function fleet.
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/knative"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/wms"
	"repro/internal/workload"
)

const arrivals = 6

func main() {
	prm := config.Default()
	stack := core.NewStack(11, prm)
	stack.RegisterTransformation(workload.MatmulTransformation, 18<<20)

	type arrival struct {
		subject string
		at      time.Duration
	}
	var log []arrival

	var dyn *core.DynamicRuns
	stack.Env.Go("main", func(p *sim.Proc) {
		defer stack.Shutdown()
		if err := stack.DeployFunction(p, workload.MatmulTransformation, core.DefaultPolicy()); err != nil {
			fmt.Fprintln(os.Stderr, "deploy:", err)
			return
		}
		broker := stack.Knative.NewBroker("default")

		// Every arrival event becomes a 4-task serverless analysis chain.
		n := 0
		dyn = stack.WatchAndRun(broker, "dev.repro.capture.done",
			func(ev knative.Event) (*wms.Workflow, wms.ModeAssigner) {
				n++
				wf := workload.Chain(fmt.Sprintf("dyn%02d", n), 4, prm.MatrixBytes)
				return wf, wms.AssignAll(wms.ModeServerless)
			})

		// The instrument: bursty captures (three quick, pause, three quick).
		for i := 0; i < arrivals; i++ {
			subject := fmt.Sprintf("capture-%02d.dat", i)
			log = append(log, arrival{subject: subject, at: p.Now()})
			if err := broker.Publish(p, "worker1", knative.Event{
				Type:      "dev.repro.capture.done",
				Source:    "instrument",
				Subject:   subject,
				DataBytes: prm.MatrixBytes,
			}); err != nil {
				fmt.Fprintln(os.Stderr, "publish:", err)
				return
			}
			if i == 2 {
				p.Sleep(60 * time.Second)
			} else {
				p.Sleep(5 * time.Second)
			}
		}
		dyn.Wait(p)
	})
	stack.Env.Run()

	fmt.Printf("%d capture events, each triggering a 4-task serverless workflow:\n\n", arrivals)
	tbl := metrics.NewTable("event", "published_s", "workflow", "makespan_s", "status")
	for i, run := range dyn.Runs() {
		status, name := "ok", "-"
		makespan := 0.0
		if run.Err != nil {
			status = run.Err.Error()
		} else if run.Result != nil {
			name = run.Result.Workflow
			makespan = run.Result.Makespan().Seconds()
		}
		tbl.AddRow(log[i].subject, log[i].at.Seconds(), name, makespan, status)
	}
	if err := tbl.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("\nworkflows launch the moment data lands — no batch submission step;")
	fmt.Println("overlapping bursts share the warm function fleet.")
}
