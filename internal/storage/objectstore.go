package storage

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/fluid"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// ObjectStore models a Minio-like S3-compatible object service — the other
// file-management strategy the paper names for serverless tasks (§V-E:
// "alternative strategies include using a storage service like Minio").
// Objects live in buckets on a dedicated service host; every GET/PUT pays a
// per-request latency plus a bandwidth-shared transfer, and the service's
// aggregate throughput is bounded.
type ObjectStore struct {
	host    string
	net     *simnet.Network
	srv     *fluid.Server
	buckets map[string]map[string]int64
	down    bool
}

// NewObjectStore returns a store hosted on host (which must be a network
// node) with the given aggregate throughput in bytes/second.
func NewObjectStore(env *sim.Env, net *simnet.Network, host string, bps float64) *ObjectStore {
	if !net.HasNode(host) {
		panic(fmt.Sprintf("storage: object store host %q not on network", host))
	}
	return &ObjectStore{
		host:    host,
		net:     net,
		srv:     fluid.New(env, "objstore:"+host, bps),
		buckets: make(map[string]map[string]int64),
	}
}

// AttachFaults registers the outage hook: during a KindStoreOutage window
// every Put and Get fails fast with a transient service-unavailable error.
func (o *ObjectStore) AttachFaults(in *faults.Injector) {
	in.OnFault(faults.KindStoreOutage, func(_ faults.Fault, begin bool) {
		o.down = begin
	})
}

// unavailable charges the failed request's round trip and returns the
// transient outage error.
func (o *ObjectStore) unavailable(p *sim.Proc, node, op string) error {
	o.net.Message(p, node, o.host)
	o.net.Message(p, o.host, node)
	return faults.Transientf("storage: object store %s: %s: service unavailable", o.host, op)
}

// Put uploads an object from a node: request latency + transfer to the
// host + service-side write bandwidth. Its span nests under parent.
func (o *ObjectStore) Put(p *sim.Proc, parent *trace.Span, fromNode, bucket, key string, size int64) error {
	sp := trace.FromEnv(p.Env()).Start(parent, "storage", "put",
		trace.L("bucket", bucket), trace.L("key", key), trace.L("node", fromNode))
	defer sp.End()
	if o.down {
		sp.SetLabel("status", "failed")
		return o.unavailable(p, fromNode, "put "+bucket+"/"+key)
	}
	b, ok := o.buckets[bucket]
	if !ok {
		return fmt.Errorf("storage: no bucket %q", bucket)
	}
	o.net.Transfer(p, fromNode, o.host, size)
	if size > 0 {
		o.srv.Run(p, float64(size), 0)
	}
	b[key] = size
	return nil
}

// Get downloads an object to a node and returns its size. Its span nests
// under parent.
func (o *ObjectStore) Get(p *sim.Proc, parent *trace.Span, toNode, bucket, key string) (int64, error) {
	sp := trace.FromEnv(p.Env()).Start(parent, "storage", "get",
		trace.L("bucket", bucket), trace.L("key", key), trace.L("node", toNode))
	defer sp.End()
	if o.down {
		sp.SetLabel("status", "failed")
		return 0, o.unavailable(p, toNode, "get "+bucket+"/"+key)
	}
	b, ok := o.buckets[bucket]
	if !ok {
		return 0, fmt.Errorf("storage: no bucket %q", bucket)
	}
	size, ok := b[key]
	if !ok {
		return 0, fmt.Errorf("storage: no object %s/%s", bucket, key)
	}
	if size > 0 {
		o.srv.Run(p, float64(size), 0)
	}
	o.net.Transfer(p, o.host, toNode, size)
	return size, nil
}

// Seed records an object without charging I/O — initial inputs.
func (o *ObjectStore) Seed(bucket, key string, size int64) {
	b, ok := o.buckets[bucket]
	if !ok {
		b = make(map[string]int64)
		o.buckets[bucket] = b
	}
	b[key] = size
}
