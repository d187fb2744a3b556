package core

import (
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/crt"
	"repro/internal/knative"
	"repro/internal/kube"
	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/sim"
)

// Platform is the serving half of the testbed (§IV): the cluster, the image
// registry, one container runtime per worker, the Kubernetes control plane
// and Knative serving. Serving-only studies build it alone; a Stack is a
// Platform plus the workflow layer.
type Platform struct {
	Env      *sim.Env
	Prm      config.Params
	Cluster  *cluster.Cluster
	Registry *registry.Registry
	Runtimes crt.Set
	Kube     *kube.Kube
	Knative  *knative.Knative
	// budget is shared by image pulls and, in a Stack, workflow
	// resubmission (nil when prm.RetryBudgetRatio is zero).
	budget *resilience.RetryBudget
}

// NewPlatform builds and starts the serving substrate described by prm on a
// fresh simulation environment with the given seed; it is the one wiring of
// these substrates. It draws nothing from the environment's random stream.
// The Platform comes by value, so a Stack embeds it without an allocation.
func NewPlatform(seed uint64, prm config.Params) Platform {
	pl := Platform{Env: sim.NewEnv(seed), Prm: prm}
	pl.Cluster = cluster.New(pl.Env, prm)
	pl.Registry = registry.New(pl.Cluster.Net)
	pl.Registry.Protect(resilience.BreakerPolicy{
		Failures:       prm.BreakerFailures,
		OpenFor:        prm.BreakerOpenFor,
		HalfOpenProbes: prm.BreakerHalfOpenProbes,
	})
	pl.Runtimes = crt.NewSet(pl.Env, pl.Cluster, pl.Registry, prm)
	if prm.RetryBudgetRatio > 0 {
		pl.budget = resilience.NewRetryBudget(prm.RetryBudgetRatio, prm.RetryBudgetBurst)
		pl.Runtimes.GateRetries(pl.budget)
	}
	pl.Kube = kube.New(pl.Env, pl.Cluster, pl.Runtimes, prm)
	pl.Kube.Start()
	pl.Knative = knative.New(pl.Env, pl.Cluster, pl.Kube, prm)
	return pl
}

// PrePull stages an image on every worker, one after another in worker
// order, and returns the first pull error.
func (pl *Platform) PrePull(p *sim.Proc, image string) error {
	for _, w := range pl.Cluster.Workers {
		if err := pl.Runtimes[w.Name].PullImage(p, image); err != nil {
			return err
		}
	}
	return nil
}

// Shutdown stops knative, then kube.
func (pl *Platform) Shutdown() {
	pl.Knative.Shutdown()
	pl.Kube.Shutdown()
}
