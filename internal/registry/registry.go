// Package registry models the container image registry (the paper stores
// its task images on DockerHub, §V-C). Images are sets of content-addressed
// layers; pulls transfer only layers missing from the destination node's
// cache, over the network from the registry endpoint.
package registry

import (
	"fmt"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/resilience"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// Layer is one content-addressed image layer.
type Layer struct {
	Digest string
	Bytes  int64
}

// Image is a named, layered container image.
type Image struct {
	Name   string
	Layers []Layer
}

// Bytes returns the image's total size.
func (img Image) Bytes() int64 {
	var total int64
	for _, l := range img.Layers {
		total += l.Bytes
	}
	return total
}

// NewImage builds an image with synthetic layer digests derived from the
// name, so two images built from the same base share their base layer (and
// pulls of the second image skip it, as with real registries).
func NewImage(name string, base []int64, appBytes int64) Image {
	img := Image{Name: name}
	for i, b := range base {
		img.Layers = append(img.Layers, Layer{Digest: fmt.Sprintf("base-%d-%d", i, b), Bytes: b})
	}
	img.Layers = append(img.Layers, Layer{Digest: "app-" + name, Bytes: appBytes})
	return img
}

// Registry is the image store plus its network endpoint.
type Registry struct {
	net     *simnet.Network
	host    string
	images  map[string]Image
	pulls   int
	faults  *faults.Injector
	breaker *resilience.Breaker
}

// New returns a registry reachable at the cluster's registry network node.
func New(net *simnet.Network) *Registry {
	return &Registry{
		net:    net,
		host:   cluster.RegistryNodeName,
		images: make(map[string]Image),
	}
}

// Push stores (or replaces) an image.
func (r *Registry) Push(img Image) { r.images[img.Name] = img }

// Image looks an image up by name.
func (r *Registry) Image(name string) (Image, bool) {
	img, ok := r.images[name]
	return img, ok
}

// Pulls returns the number of layer transfers served, for test assertions.
func (r *Registry) Pulls() int { return r.pulls }

// AttachFaults connects the registry to the fault injector. Pull errors
// (KindRegistryError) are rolled per pull request here; bandwidth brownouts
// (KindRegistryBrownout) are delivered by the network, which owns the
// registry node's egress interface.
func (r *Registry) AttachFaults(in *faults.Injector) { r.faults = in }

// Protect installs a circuit breaker on the pull path: after enough
// consecutive pull failures the registry endpoint fast-fails further pulls
// (ErrCircuitOpen, no network round trip) until the open window elapses and
// probe pulls succeed. A zero policy leaves pulls unprotected.
func (r *Registry) Protect(pol resilience.BreakerPolicy) {
	r.breaker = resilience.NewBreaker(pol)
}

// PullLayersThen transfers the given layers of the named image to node,
// one after another, and hands the outcome to done once the network time
// has elapsed. The caller (the node's container runtime) decides which
// layers are missing. With fault injection active, a pull may fail
// transiently (HTTP 5xx / dropped connection) — retryable by the runtime's
// pull policy. With a breaker installed, consecutive failures trip it and
// later pulls fast-fail with ErrCircuitOpen (not transient: the runtime's
// retry loop stops immediately instead of hammering a down endpoint). An
// unknown image and an open breaker fail at once. The pull's spans nest
// under parent.
func (r *Registry) PullLayersThen(parent *trace.Span, node string, img Image, missing []Layer, done func(error)) {
	if _, ok := r.images[img.Name]; !ok {
		done(fmt.Errorf("registry: image %q not found", img.Name))
		return
	}
	env := r.net.Env()
	tr := trace.FromEnv(env)
	if !r.breaker.Allow(env.Now()) {
		br := tr.Start(parent, "registry", "breaker",
			trace.L("image", img.Name), trace.L("node", node),
			trace.L("state", r.breaker.State(env.Now()).String()))
		br.End()
		done(fmt.Errorf("registry: pull %q to %s: %w", img.Name, node, resilience.ErrCircuitOpen))
		return
	}
	var sp *trace.Span
	if tr != nil {
		sp = tr.Start(parent, "registry", "layers",
			trace.L("image", img.Name), trace.L("node", node), trace.L("layers", strconv.Itoa(len(missing))))
	}
	if r.faults != nil && r.faults.Roll(faults.KindRegistryError, node) {
		// The failed request still costs a round trip to the endpoint.
		r.net.MessageThen(r.host, node, func() {
			sp.SetLabel("status", "failed")
			r.breaker.OnFailure(env.Now())
			sp.End()
			done(faults.Transientf("registry: pull %q to %s: injected pull error", img.Name, node))
		})
		return
	}
	r.transfer(node, missing, func() {
		r.breaker.OnSuccess(env.Now())
		sp.End()
		done(nil)
	})
}

// transfer moves the layers to node one after another, then runs then.
func (r *Registry) transfer(node string, layers []Layer, then func()) {
	if len(layers) == 0 {
		then()
		return
	}
	r.pulls++
	r.net.TransferThen(r.host, node, layers[0].Bytes, func() { r.transfer(node, layers[1:], then) })
}
