// Package simnet models the cluster network: named nodes with
// bandwidth-limited egress interfaces connected by a low-latency fabric.
//
// Transfers contend at the sender's egress interface (a fluid server), which
// is where the reproduction's interesting bottleneck lives: every HTCondor
// file transfer — input matrices, and in container mode the image itself —
// leaves through the submit node's uplink (paper §IV-4, Fig. 2). Receiver
// ingress contention is approximated by capping each transfer's rate at the
// receiver's interface bandwidth.
package simnet

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/fluid"
	"repro/internal/sim"
)

// Network is the cluster fabric. All methods must be called from simulation
// context.
type Network struct {
	env       *sim.Env
	latency   time.Duration
	latFactor float64
	ifaces    map[string]*iface
	parts     map[string]bool
	healed    sim.Signal
	flows     []*flow // idle flows, recycled
}

type iface struct {
	name   string
	bps    float64 // current egress bandwidth (may be degraded by a fault)
	base   float64 // configured egress bandwidth
	egress *fluid.Server
	tx     int64 // bytes sent, for accounting
	rx     int64 // bytes received
}

// New returns a network with the given one-way message latency between any
// pair of distinct nodes.
func New(env *sim.Env, latency time.Duration) *Network {
	return &Network{
		env:       env,
		latency:   latency,
		latFactor: 1,
		ifaces:    make(map[string]*iface),
		parts:     make(map[string]bool),
	}
}

// AddNode registers a node with the given egress bandwidth in bytes/second.
func (n *Network) AddNode(name string, egressBps float64) {
	if _, ok := n.ifaces[name]; ok {
		panic(fmt.Sprintf("simnet: duplicate node %q", name))
	}
	n.ifaces[name] = &iface{
		name:   name,
		bps:    egressBps,
		base:   egressBps,
		egress: fluid.New(n.env, "net:"+name, egressBps),
	}
}

// Env returns the environment the network runs in.
func (n *Network) Env() *sim.Env { return n.env }

// HasNode reports whether name is registered.
func (n *Network) HasNode(name string) bool {
	_, ok := n.ifaces[name]
	return ok
}

// oneWay returns the one-way message latency, including any active
// latency-spike fault.
func (n *Network) oneWay() time.Duration {
	return time.Duration(float64(n.latency) * n.latFactor)
}

// setLatencyFactor scales the fabric's one-way latency by f (1 restores the
// configured value) — the delivery mechanism for latency-spike faults.
func (n *Network) setLatencyFactor(f float64) {
	if f <= 0 {
		panic(fmt.Sprintf("simnet: latency factor %v must be positive", f))
	}
	n.latFactor = f
}

// setBandwidthFactor scales a node's egress bandwidth to 1/f of its
// configured value (f=1 restores it) — the delivery mechanism for bandwidth
// brownouts such as a throttled registry. Transfers already in flight are
// re-paced at the new rate.
func (n *Network) setBandwidthFactor(node string, f float64) {
	if f <= 0 {
		panic(fmt.Sprintf("simnet: bandwidth factor %v must be positive", f))
	}
	iface := n.mustIface(node)
	iface.bps = iface.base / f
	iface.egress.SetCapacity(iface.bps)
}

// partKey canonicalises an unordered node pair.
func partKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// partition severs connectivity between two nodes. Messages and transfers
// between them block until heal — partitioned traffic stalls rather than
// erroring, matching TCP behaviour within typical fault windows.
func (n *Network) partition(a, b string) {
	n.mustIface(a)
	n.mustIface(b)
	n.parts[partKey(a, b)] = true
}

// heal restores connectivity between two nodes and releases traffic blocked
// on the partition.
func (n *Network) heal(a, b string) {
	delete(n.parts, partKey(a, b))
	n.healed.Broadcast()
}

// partitioned reports whether from↔to is severed.
func (n *Network) partitioned(from, to string) bool {
	return len(n.parts) > 0 && n.parts[partKey(from, to)]
}

// AttachFaults registers the network's fault hooks: latency spikes
// (KindNetLatency, Rate = multiplier), partitions (KindNetPartition, Target
// = "a|b"), and registry-style bandwidth brownouts (KindRegistryBrownout,
// Target = node, Rate = collapse divisor).
func (n *Network) AttachFaults(in *faults.Injector) {
	in.OnFault(faults.KindNetLatency, func(f faults.Fault, begin bool) {
		if begin {
			n.setLatencyFactor(f.Rate)
		} else {
			n.setLatencyFactor(1)
		}
	})
	in.OnFault(faults.KindNetPartition, func(f faults.Fault, begin bool) {
		a, b, ok := strings.Cut(f.Target, "|")
		if !ok {
			panic(fmt.Sprintf("simnet: partition target %q not of form a|b", f.Target))
		}
		if begin {
			n.partition(a, b)
		} else {
			n.heal(a, b)
		}
	})
	in.OnFault(faults.KindRegistryBrownout, func(f faults.Fault, begin bool) {
		if begin {
			n.setBandwidthFactor(f.Target, f.Rate)
		} else {
			n.setBandwidthFactor(f.Target, 1)
		}
	})
}

// MessageThen charges one small control message from one node to another
// (latency only; bandwidth is negligible) and then runs then. Loopback is
// free: then runs at once.
func (n *Network) MessageThen(from, to string, then func()) {
	if from == to {
		then()
		return
	}
	n.mustIface(from)
	n.mustIface(to)
	if n.partitioned(from, to) {
		n.healed.Then(n.env, func() { n.MessageThen(from, to, then) })
		return
	}
	n.env.Delay(n.oneWay(), then)
}

// TransferThen moves size bytes from one node to another and then runs
// then, after the propagation latency plus the bandwidth-limited transfer
// time. Concurrent transfers out of the same node share its egress
// bandwidth; each transfer is additionally capped at the receiver's
// interface rate. Loopback transfers are free: then runs at once.
func (n *Network) TransferThen(from, to string, size int64, then func()) {
	if size < 0 {
		panic("simnet: negative transfer size")
	}
	src, dst := n.mustIface(from), n.mustIface(to)
	if from == to {
		then()
		return
	}
	if n.partitioned(from, to) {
		n.healed.Then(n.env, func() { n.TransferThen(from, to, size, then) })
		return
	}
	f := n.newFlow()
	f.src, f.dst, f.size, f.then = src, dst, size, then
	n.env.Delay(n.oneWay(), f.propagated)
}

// rateCap is a transfer's rate cap: the receiver's interface rate when it
// is slower than the sender's, else none.
func rateCap(src, dst *iface) float64 {
	if dst.bps < src.bps {
		return dst.bps
	}
	return 0
}

// flow is a transfer past its partition wait. Flows are recycled,
// so a steady stream of transfers allocates nothing.
type flow struct {
	src, dst *iface
	size     int64
	then     func()
	// propagated runs once the latency has elapsed, drained once the
	// bytes have left the sender's egress; both are bound once per struct.
	propagated, drained func()
}

func (n *Network) newFlow() *flow {
	if k := len(n.flows); k > 0 {
		f := n.flows[k-1]
		n.flows[k-1] = nil
		n.flows = n.flows[:k-1]
		return f
	}
	f := &flow{}
	f.propagated = func() {
		if f.size == 0 {
			n.endFlow(f)
			return
		}
		f.src.egress.RunReservedThen(float64(f.size), rateCap(f.src, f.dst), 0, f.drained)
	}
	f.drained = func() {
		f.src.tx += f.size
		f.dst.rx += f.size
		n.endFlow(f)
	}
	return f
}

// endFlow recycles f and runs its continuation.
func (n *Network) endFlow(f *flow) {
	then := f.then
	*f = flow{propagated: f.propagated, drained: f.drained}
	n.flows = append(n.flows, f)
	then()
}

// BytesSent returns the total bytes a node has sent.
func (n *Network) BytesSent(node string) int64 { return n.mustIface(node).tx }

// BytesReceived returns the total bytes a node has received.
func (n *Network) BytesReceived(node string) int64 { return n.mustIface(node).rx }

// TotalBytesSent returns the bytes sent across every node — total data
// movement on the fabric.
func (n *Network) TotalBytesSent() int64 {
	var total int64
	for _, f := range n.ifaces {
		total += f.tx
	}
	return total
}

func (n *Network) mustIface(name string) *iface {
	f, ok := n.ifaces[name]
	if !ok {
		panic(fmt.Sprintf("simnet: unknown node %q", name))
	}
	return f
}
