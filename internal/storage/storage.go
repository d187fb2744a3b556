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

// Disk is a node-local disk with a shared I/O bandwidth budget.
type Disk struct {
	srv *fluid.Server
}

// NewDisk returns a disk with the given aggregate bandwidth in bytes/second.
func NewDisk(env *sim.Env, name string, bps float64) *Disk {
	return &Disk{srv: fluid.New(env, "disk:"+name, bps)}
}

// read charges a read of size bytes, sharing bandwidth with concurrent I/O.
func (d *Disk) read(p *sim.Proc, size int64) {
	if size > 0 {
		d.srv.Run(p, float64(size), 0)
	}
}

// write charges a write of size bytes.
func (d *Disk) write(p *sim.Proc, size int64) {
	if size > 0 {
		d.srv.Run(p, float64(size), 0)
	}
}

// Scratch is a node-local staging directory tracking logical files by name
// and size — the per-job sandbox condor's file transfer populates.
type Scratch struct {
	node  string
	disk  *Disk
	files map[string]int64
}

// NewScratch returns an empty scratch area backed by disk.
func NewScratch(node string, disk *Disk) *Scratch {
	return &Scratch{node: node, disk: disk, files: make(map[string]int64)}
}

// Put records a file and charges the disk write.
func (s *Scratch) Put(p *sim.Proc, name string, size int64) {
	s.disk.write(p, size)
	s.files[name] = size
}

// Get charges a disk read of the named file and returns its size.
func (s *Scratch) Get(p *sim.Proc, name string) (int64, error) {
	size, ok := s.files[name]
	if !ok {
		return 0, fmt.Errorf("storage: %s: no file %q", s.node, name)
	}
	s.disk.read(p, size)
	return size, nil
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
	disk  *Disk
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

// Write stores a file from the given node, charging the transfer to the
// host plus the host disk write. Its span nests under parent.
func (fs *SharedFS) Write(p *sim.Proc, parent *trace.Span, fromNode, name string, size int64) {
	sp := trace.FromEnv(p.Env()).Start(parent, "storage", "write",
		trace.L("fs", "shared"), trace.L("file", name), trace.L("node", fromNode))
	defer sp.End()
	fs.net.Transfer(p, fromNode, fs.host, size)
	fs.disk.write(p, size)
	fs.files[name] = size
}

// Read fetches a file to the given node, charging the host disk read plus
// the transfer, and returns its size. Its span nests under parent.
func (fs *SharedFS) Read(p *sim.Proc, parent *trace.Span, toNode, name string) (int64, error) {
	size, ok := fs.files[name]
	if !ok {
		return 0, fmt.Errorf("storage: shared fs: no file %q", name)
	}
	sp := trace.FromEnv(p.Env()).Start(parent, "storage", "read",
		trace.L("fs", "shared"), trace.L("file", name), trace.L("node", toNode))
	defer sp.End()
	fs.disk.read(p, size)
	fs.net.Transfer(p, fs.host, toNode, size)
	return size, nil
}

// Has reports whether the named file exists.
func (fs *SharedFS) Has(name string) bool {
	_, ok := fs.files[name]
	return ok
}

// Touch records a file's existence without charging any I/O — used to seed
// initial inputs at simulation start.
func (fs *SharedFS) Touch(name string, size int64) { fs.files[name] = size }
