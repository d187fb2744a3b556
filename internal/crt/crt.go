// Package crt is the per-node container runtime: a Docker-engine model with
// an image store, container lifecycle (create → start → exec* → stop/remove)
// and the per-operation overheads whose accumulation is the Docker curve of
// the paper's Fig. 1. Keeping a started container and calling ExecThen on it
// repeatedly is container reuse — the serverless platform's headline
// mechanism.
package crt

import (
	"fmt"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/fluid"
	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/trace"
)

// State is a container lifecycle state.
type State int

// Container lifecycle states.
const (
	StateCreated State = iota
	StateRunning
	StateRemoved
)

func (s State) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateRunning:
		return "running"
	case StateRemoved:
		return "removed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Runtime is one node's container engine.
type Runtime struct {
	env    *sim.Env
	node   *cluster.Node
	reg    *registry.Registry
	params *config.Params // the set's one copy

	layers map[string]bool
	images map[string]registry.Image
	loader *fluid.Server // docker-load unpack bandwidth, shared per node
	faults *faults.Injector
	budget *resilience.RetryBudget // shared pull retry budget (nil = ungated)
	ops    *op                     // recycled imports and traced execs, linked by next

	createdTotal int
	removedTotal int
}

// Set is the collection of per-worker runtimes for a cluster — the one
// Docker engine per node that both the batch system's container universe and
// the Kubernetes kubelet drive.
type Set map[string]*Runtime

// NewSet builds one runtime per worker node. The runtimes share one copy
// of params and one allocation.
func NewSet(env *sim.Env, cl *cluster.Cluster, reg *registry.Registry, params config.Params) Set {
	set := make(Set, len(cl.Workers))
	rts := make([]Runtime, len(cl.Workers))
	for i, w := range cl.Workers {
		rts[i] = Runtime{
			env:    env,
			node:   w,
			reg:    reg,
			params: &params,
			layers: make(map[string]bool),
			images: make(map[string]registry.Image),
			loader: fluid.New(env, "imgload:"+w.Name, params.ImageLoadBps),
		}
		set[w.Name] = &rts[i]
	}
	return set
}

// AttachFaults connects every runtime in the set to the fault injector
// (container create/start failure rolls, KindCreateFail / KindStartFail).
func (set Set) AttachFaults(in *faults.Injector) {
	for _, rt := range set {
		rt.faults = in
	}
}

// GateRetries shares one retry budget across every runtime in the set:
// image-pull retries on any node draw from it and successful pulls deposit
// back, so a registry incident cannot amplify into a cluster-wide pull
// storm. A nil budget leaves retries ungated (the seed behaviour).
func (set Set) GateRetries(b *resilience.RetryBudget) {
	for _, rt := range set {
		rt.budget = b
	}
}

// HasImage reports whether the named image is in the local store.
func (rt *Runtime) HasImage(name string) bool {
	_, ok := rt.images[name]
	return ok
}

// Live returns the number of containers created and not yet removed.
func (rt *Runtime) Live() int { return rt.createdTotal - rt.removedTotal }

// CreatedTotal returns the lifetime count of containers created — the
// metric that separates Docker-per-task from serverless reuse.
func (rt *Runtime) CreatedTotal() int { return rt.createdTotal }

// PullImage is PullThen with no parent span, waited on by the calling
// process: a pre-pull outside any traced operation.
func (rt *Runtime) PullImage(p *sim.Proc, name string) (err error) {
	resume := p.Resumer()
	rt.PullThen(nil, name, func(e error) { err = e; resume() })
	p.Await()
	return err
}

// PullThen fetches the named image from the registry, transferring only
// layers absent from this node's cache, records it in the local store,
// and hands the outcome to done; its span nests under parent. Transient
// registry failures are retried under the PullRetry policy with
// exponential backoff; permanent errors (unknown image) surface
// immediately. A present image is done at once.
func (rt *Runtime) PullThen(parent *trace.Span, name string, done func(error)) {
	if rt.HasImage(name) {
		done(nil)
		return
	}
	img, ok := rt.reg.Image(name)
	if !ok {
		done(fmt.Errorf("crt: %s: image %q not in registry", rt.node.Name, name))
		return
	}
	var missing []registry.Layer
	for _, l := range img.Layers {
		if !rt.layers[l.Digest] {
			missing = append(missing, l)
		}
	}
	sp := trace.FromEnv(rt.env).Start(parent, "crt", "pull", trace.L("image", name), trace.L("node", rt.node.Name))
	rt.pullAttempt(sp, img, missing, 1, done)
}

// pullAttempt makes a pull's attempt-th try and retries a transient
// failure after its backoff.
func (rt *Runtime) pullAttempt(sp *trace.Span, img registry.Image, missing []registry.Layer, attempt int, done func(error)) {
	rt.reg.PullLayersThen(sp, rt.node.Name, img, missing, func(err error) {
		rp := rt.params.PullRetry
		switch {
		case err == nil:
			rt.budget.OnSuccess()
			sp.End()
			for _, l := range img.Layers {
				rt.layers[l.Digest] = true
			}
			rt.images[img.Name] = img
			done(nil)
			return
		case !faults.IsTransient(err) || attempt == rp.Attempts():
		case !rt.budget.TryRetry():
			// The shared pull budget is dry: failures across the cluster
			// are outpacing successes, so stop retrying rather than pile
			// onto a struggling registry.
			err = fmt.Errorf("crt: %s: pull retry budget exhausted: %w", rt.node.Name, err)
		default:
			rt.env.Delay(rp.Backoff(attempt, rt.env.Rand()), func() {
				rt.pullAttempt(sp, img, missing, attempt+1, done)
			})
			return
		}
		sp.SetLabel("status", "failed")
		sp.End()
		done(err)
	})
}

// ImportImageThen models `docker load` of an image file already present on
// the node (Pegasus's container universe ships the image as a job input
// file): the unpack work is charged against the node's shared load
// bandwidth, so concurrent jobs importing on the same node contend — a
// significant part of the traditional-container path's poor parallel
// scaling. The import's span nests under parent, and then runs where the
// unpack drains (see fluid.Server.RunReservedThen).
func (rt *Runtime) ImportImageThen(parent *trace.Span, img registry.Image, then func()) {
	sp := trace.FromEnv(rt.env).Start(parent, "crt", "import", trace.L("image", img.Name), trace.L("node", rt.node.Name))
	o := rt.newOp(sp, then)
	o.img = img
	rt.loader.RunReservedThen(float64(img.Bytes()), 0, 0, o.done)
}

// op is an import or a traced exec in flight: what its end records, and
// the continuation it then runs. Ops are recycled through the runtime's
// free list and their done step is bound once per struct, so neither
// allocates once the list has grown to the node's concurrency.
type op struct {
	rt   *Runtime
	sp   *trace.Span
	img  registry.Image // an import's image; empty for an exec
	then func()
	done func() // finish, bound once
	next *op    // the free list's next op
}

func (rt *Runtime) newOp(sp *trace.Span, then func()) *op {
	o := rt.ops
	if o != nil {
		rt.ops = o.next
	} else {
		o = &op{rt: rt}
		o.done = o.finish
	}
	o.sp, o.then = sp, then
	return o
}

// finish ends the op once its work drains: an import records its image
// in the local store, the span ends, and the op is recycled before its
// continuation runs.
func (o *op) finish() {
	rt, then := o.rt, o.then
	if o.img.Name != "" {
		for _, l := range o.img.Layers {
			rt.layers[l.Digest] = true
		}
		rt.images[o.img.Name] = o.img
	}
	o.sp.End()
	*o = op{rt: rt, done: o.done, next: rt.ops}
	rt.ops = o
	then()
}

// Container is one container instance on a node.
type Container struct {
	ID       int
	Image    string
	CapCores float64
	rt       *Runtime
	state    State
	op       *trace.Span // span of the create, start or stop-remove in flight
}

// State returns the container's lifecycle state.
func (c *Container) State() State { return c.state }

// The lifecycle ops create, start, exec and stopRemove are their
// continuation forms (BeginCreate, BeginStart, ExecThen, BeginStopRemove)
// with the calling process's resume and one park. Begin* checks the op,
// opens its span under the given parent and arms then to run once the
// op's overhead has elapsed; then calls the matching End*, which applies
// the op's outcome.

// create provisions a container from a locally available image, charging
// the create overhead. capCores > 0 applies a cgroup CPU quota to
// everything later executed in the container; 0 leaves it uncapped.
func (rt *Runtime) create(p *sim.Proc, parent *trace.Span, image string, capCores float64) (*Container, error) {
	c, err := rt.BeginCreate(parent, image, capCores, p.Resumer())
	if err != nil {
		return nil, err
	}
	p.Await()
	if err := c.EndCreate(); err != nil {
		return nil, err
	}
	return c, nil
}

// BeginCreate is create's continuation form. The container it returns has
// no ID and is not live until EndCreate succeeds. An error means then was
// not armed.
func (rt *Runtime) BeginCreate(parent *trace.Span, image string, capCores float64, then func()) (*Container, error) {
	if !rt.HasImage(image) {
		return nil, fmt.Errorf("crt: %s: create: image %q not present", rt.node.Name, image)
	}
	c := &Container{Image: image, CapCores: capCores, rt: rt, state: StateCreated}
	c.op = trace.FromEnv(rt.env).Start(parent, "crt", "create", trace.L("image", image), trace.L("node", rt.node.Name))
	rt.env.Delay(rt.params.ContainerCreate, then)
	return c, nil
}

// EndCreate completes a create whose overhead has elapsed: the injected
// failure roll, then the container's ID.
func (c *Container) EndCreate() error {
	rt, sp := c.rt, c.op
	c.op = nil
	if rt.faults != nil && rt.faults.Roll(faults.KindCreateFail, rt.node.Name) {
		sp.SetLabel("status", "failed")
		sp.End()
		return faults.Transientf("crt: %s: create %q: injected create failure", rt.node.Name, c.Image)
	}
	c.ID = rt.createdTotal // IDs count creations from 0
	rt.createdTotal++
	if sp != nil {
		sp.SetLabel("container", c.ref())
	}
	sp.End()
	return nil
}

// ref names the container uniquely across the cluster for trace labels.
func (c *Container) ref() string {
	return c.rt.node.Name + "/" + strconv.Itoa(c.ID)
}

// span opens a lifecycle span on the container under parent. The
// container label is formatted only when a tracer is attached.
func (c *Container) span(parent *trace.Span, name string) *trace.Span {
	tr := trace.FromEnv(c.rt.env)
	if tr == nil {
		return nil
	}
	return tr.Start(parent, "crt", name, trace.L("container", c.ref()), trace.L("node", c.rt.node.Name))
}

// start transitions the container to running, charging the start overhead.
func (c *Container) start(p *sim.Proc, parent *trace.Span) error {
	if err := c.BeginStart(parent, p.Resumer()); err != nil {
		return err
	}
	p.Await()
	return c.EndStart()
}

// BeginStart is start's continuation form. An error means then was not
// armed.
func (c *Container) BeginStart(parent *trace.Span, then func()) error {
	if c.state != StateCreated {
		return fmt.Errorf("crt: start: container %d is %v", c.ID, c.state)
	}
	c.op = c.span(parent, "start")
	c.rt.env.Delay(c.rt.params.ContainerStart, then)
	return nil
}

// EndStart completes a start whose overhead has elapsed: the injected
// failure roll, then the running state.
func (c *Container) EndStart() error {
	sp := c.op
	c.op = nil
	if c.rt.faults != nil && c.rt.faults.Roll(faults.KindStartFail, c.rt.node.Name) {
		sp.SetLabel("status", "failed")
		sp.End()
		return faults.Transientf("crt: %s: start container %d: injected start failure", c.rt.node.Name, c.ID)
	}
	c.state = StateRunning
	sp.End()
	return nil
}

// exec runs work core-seconds inside the container on the node's CPU and
// blocks until the work completes. The paper's tasks (single-threaded
// python matmul) can use at most one core, so the effective rate cap is
// min(1, cgroup quota). The same quota also acts as the container's CPU
// reservation (cgroup shares), so containerized work is shielded from
// noisy neighbours — the isolation half of the paper's trade-off. Floors
// scale down when a node's reservations are oversubscribed.
func (c *Container) exec(p *sim.Proc, parent *trace.Span, work float64) error {
	if err := c.ExecThen(parent, work, p.Resumer()); err != nil {
		return err
	}
	p.Await()
	return nil
}

// ExecThen is exec's continuation form: then runs once the work completes.
// An error means then was not armed.
func (c *Container) ExecThen(parent *trace.Span, work float64, then func()) error {
	if c.state != StateRunning {
		return fmt.Errorf("crt: exec: container %d is %v", c.ID, c.state)
	}
	if sp := c.span(parent, "exec"); sp != nil {
		then = c.rt.newOp(sp, then).done
	}
	rate, floor := 1.0, 0.0
	if c.CapCores > 0 && c.CapCores < rate {
		rate = c.CapCores
	}
	if c.CapCores > 0 {
		floor = rate
	}
	c.rt.node.ExecReservedThen(work, rate, floor, then)
	return nil
}

// stopRemove stops and removes the container, charging the teardown
// overhead.
func (c *Container) stopRemove(p *sim.Proc, parent *trace.Span) error {
	if err := c.BeginStopRemove(parent, p.Resumer()); err != nil {
		return err
	}
	p.Await()
	c.EndStopRemove()
	return nil
}

// BeginStopRemove is stopRemove's continuation form. An error means then
// was not armed.
func (c *Container) BeginStopRemove(parent *trace.Span, then func()) error {
	if c.state == StateRemoved {
		return fmt.Errorf("crt: remove: container %d already removed", c.ID)
	}
	c.op = c.span(parent, "stop-remove")
	c.rt.env.Delay(c.rt.params.ContainerStopRemove, then)
	return nil
}

// EndStopRemove completes a stop-remove whose overhead has elapsed.
func (c *Container) EndStopRemove() {
	c.state = StateRemoved
	c.rt.removedTotal++
	c.op.End()
	c.op = nil
}

// DockerRun is the `docker run --rm` path of the Fig. 1 motivation
// experiment: CLI round trip, create, start, execute one task, teardown.
// Its lifecycle spans are roots.
func (rt *Runtime) DockerRun(p *sim.Proc, image string, work, capCores float64) error {
	p.Sleep(rt.params.DockerCLI)
	c, err := rt.create(p, nil, image, capCores)
	if err != nil {
		return err
	}
	if err := c.start(p, nil); err != nil {
		_ = c.stopRemove(p, nil)
		return err
	}
	if err := c.exec(p, nil, work); err != nil {
		_ = c.stopRemove(p, nil)
		return err
	}
	return c.stopRemove(p, nil)
}
