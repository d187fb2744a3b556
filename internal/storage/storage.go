// Package storage models the data plane of the testbed: per-node disks with
// bounded I/O bandwidth, per-node scratch directories (the condor job
// sandbox), and a shared filesystem hosted on the submit node — the
// alternative file-management strategy the paper discusses for serverless
// tasks (§III-C, §V-E).
package storage

import (
	"fmt"

	"repro/internal/fluid"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// NewDisk returns a node-local disk: a fluid server of the given
// aggregate bandwidth in bytes/second, shared by concurrent I/O.
func NewDisk(env *sim.Env, name string, bps float64) *fluid.Server {
	return fluid.New(env, "disk:"+name, bps)
}

// Scratch is a node-local staging directory tracking logical files by name
// and size — the per-job sandbox condor's file transfer populates.
type Scratch struct {
	node  string
	disk  *fluid.Server
	files map[string]int64
}

// NewScratch returns an empty scratch area backed by disk.
func NewScratch(node string, disk *fluid.Server) *Scratch {
	return &Scratch{node: node, disk: disk, files: make(map[string]int64)}
}

// PutThen charges the disk write of a file, records it, and then runs
// then.
func (s *Scratch) PutThen(name string, size int64, then func()) {
	s.disk.RunReservedThen(float64(size), 0, 0, func() {
		s.files[name] = size
		then()
	})
}

// GetThen charges a disk read of the named file and hands its size to
// done; a missing file fails at once.
func (s *Scratch) GetThen(name string, done func(int64, error)) {
	size, ok := s.files[name]
	if !ok {
		done(0, fmt.Errorf("storage: %s: no file %q", s.node, name))
		return
	}
	s.disk.RunReservedThen(float64(size), 0, 0, func() { done(size, nil) })
}

// Has reports whether the named file is present.
func (s *Scratch) Has(name string) bool {
	_, ok := s.files[name]
	return ok
}

// SharedFS is a network filesystem exported by one host node. Reads and
// writes from other nodes traverse the network and the host's disk; local
// access touches only the disk.
type SharedFS struct {
	host  string
	disk  *fluid.Server
	net   *simnet.Network
	files map[string]int64
}

// NewSharedFS returns a shared filesystem hosted on host (which must be a
// registered network node).
func NewSharedFS(env *sim.Env, net *simnet.Network, host string, diskBps float64) *SharedFS {
	if !net.HasNode(host) {
		panic(fmt.Sprintf("storage: shared fs host %q not on network", host))
	}
	return &SharedFS{
		host:  host,
		disk:  NewDisk(env, "sharedfs:"+host, diskBps),
		net:   net,
		files: make(map[string]int64),
	}
}

// WriteThen stores a file from the given node, charging the transfer to
// the host plus the host disk write, and then runs then. Its span nests
// under parent.
func (fs *SharedFS) WriteThen(parent *trace.Span, fromNode, name string, size int64, then func()) {
	sp := trace.FromEnv(fs.net.Env()).Start(parent, "storage", "write",
		trace.L("fs", "shared"), trace.L("file", name), trace.L("node", fromNode))
	fs.net.TransferThen(fromNode, fs.host, size, func() {
		fs.disk.RunReservedThen(float64(size), 0, 0, func() {
			fs.files[name] = size
			sp.End()
			then()
		})
	})
}

// ReadThen fetches a file to the given node, charging the host disk read
// plus the transfer, and hands its size to done; a missing file fails at
// once. Its span nests under parent.
func (fs *SharedFS) ReadThen(parent *trace.Span, toNode, name string, done func(int64, error)) {
	size, ok := fs.files[name]
	if !ok {
		done(0, fmt.Errorf("storage: shared fs: no file %q", name))
		return
	}
	sp := trace.FromEnv(fs.net.Env()).Start(parent, "storage", "read",
		trace.L("fs", "shared"), trace.L("file", name), trace.L("node", toNode))
	fs.disk.RunReservedThen(float64(size), 0, 0, func() {
		fs.net.TransferThen(fs.host, toNode, size, func() {
			sp.End()
			done(size, nil)
		})
	})
}

// Has reports whether the named file exists.
func (fs *SharedFS) Has(name string) bool {
	_, ok := fs.files[name]
	return ok
}

// Touch records a file's existence without charging any I/O — used to seed
// initial inputs at simulation start.
func (fs *SharedFS) Touch(name string, size int64) { fs.files[name] = size }
