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

// unavailable marks the failed request's span, charges its round trip,
// ends the span and hands the transient outage error to done.
func (o *ObjectStore) unavailable(sp *trace.Span, node, op string, done func(error)) {
	sp.SetLabel("status", "failed")
	o.net.MessageThen(node, o.host, func() {
		o.net.MessageThen(o.host, node, func() {
			sp.End()
			done(faults.Transientf("storage: object store %s: %s: service unavailable", o.host, op))
		})
	})
}

// PutThen uploads an object from a node: request latency + transfer to
// the host + service-side write bandwidth, then done. A missing bucket
// fails at once, an outage after the request's round trip. Its span nests
// under parent.
func (o *ObjectStore) PutThen(parent *trace.Span, fromNode, bucket, key string, size int64, done func(error)) {
	sp := trace.FromEnv(o.net.Env()).Start(parent, "storage", "put",
		trace.L("bucket", bucket), trace.L("key", key), trace.L("node", fromNode))
	b, ok := o.buckets[bucket]
	switch {
	case o.down:
		o.unavailable(sp, fromNode, "put "+bucket+"/"+key, done)
	case !ok:
		sp.End()
		done(fmt.Errorf("storage: no bucket %q", bucket))
	default:
		o.net.TransferThen(fromNode, o.host, size, func() {
			o.srv.RunReservedThen(float64(size), 0, 0, func() {
				b[key] = size
				sp.End()
				done(nil)
			})
		})
	}
}

// GetThen downloads an object to a node and hands its size to done. A
// missing bucket or object fails at once, an outage after the request's
// round trip. Its span nests under parent.
func (o *ObjectStore) GetThen(parent *trace.Span, toNode, bucket, key string, done func(int64, error)) {
	sp := trace.FromEnv(o.net.Env()).Start(parent, "storage", "get",
		trace.L("bucket", bucket), trace.L("key", key), trace.L("node", toNode))
	b, ok := o.buckets[bucket]
	size, found := b[key]
	switch {
	case o.down:
		o.unavailable(sp, toNode, "get "+bucket+"/"+key, func(err error) { done(0, err) })
	case !ok:
		sp.End()
		done(0, fmt.Errorf("storage: no bucket %q", bucket))
	case !found:
		sp.End()
		done(0, fmt.Errorf("storage: no object %s/%s", bucket, key))
	default:
		o.srv.RunReservedThen(float64(size), 0, 0, func() {
			o.net.TransferThen(o.host, toNode, size, func() {
				sp.End()
				done(size, nil)
			})
		})
	}
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
