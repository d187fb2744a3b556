package storage

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/fluid"
	"repro/internal/sim"
	"repro/internal/trace"
)

// diffOp is one storage op of TestThenFormsMatchWaitingProcess: a kind
// ("fs-write", "fs-read", "sc-put", "sc-get", "os-put" or "os-get") and
// its arguments, started at a virtual time.
type diffOp struct {
	name     string
	at       time.Duration
	kind     string
	node     string
	bucket   string
	file     string
	size     int64
	wantLine string // what the op's line must contain
	// waits runs the op as a waiting process in both runs: the partner
	// of the op before it, which ends at the same instant on the same
	// server, so a continuation that ran later than its process would
	// have lands behind the partner's.
	waits bool
}

// diffWorld is the storage one run of the test drives.
type diffWorld struct {
	fs    *SharedFS
	sc    *Scratch
	store *ObjectStore
}

// chain starts op in its continuation form and hands the outcome to done.
func (w diffWorld) chain(o diffOp, done func(int64, error)) {
	switch o.kind {
	case "fs-write":
		w.fs.WriteThen(nil, o.node, o.file, o.size, func() { done(0, nil) })
	case "fs-read":
		w.fs.ReadThen(nil, o.node, o.file, done)
	case "sc-put":
		w.sc.PutThen(o.file, o.size, func() { done(0, nil) })
	case "sc-get":
		w.sc.GetThen(o.file, done)
	case "os-put":
		w.store.PutThen(nil, o.node, o.bucket, o.file, o.size, func(err error) { done(0, err) })
	case "os-get":
		w.store.GetThen(nil, o.node, o.bucket, o.file, done)
	}
}

// wait runs op in process p as the blocking code that once implemented
// it: each disk, service, transfer or message step waits on its
// continuation form with p's resume, then one park.
func (w diffWorld) wait(p *sim.Proc, env *sim.Env, o diffOp) (int64, error) {
	run := func(srv *fluid.Server, size int64) {
		srv.RunReservedThen(float64(size), 0, 0, p.Resumer())
		p.Await()
	}
	net := w.fs.net
	xfer := func(from, to string, size int64) {
		net.TransferThen(from, to, size, p.Resumer())
		p.Await()
	}
	msg := func(from, to string) {
		net.MessageThen(from, to, p.Resumer())
		p.Await()
	}
	tr := trace.FromEnv(env)
	fs, sc, store := w.fs, w.sc, w.store
	switch o.kind {
	case "fs-write":
		sp := tr.Start(nil, "storage", "write", trace.L("fs", "shared"), trace.L("file", o.file), trace.L("node", o.node))
		defer sp.End()
		xfer(o.node, fs.host, o.size)
		run(fs.disk, o.size)
		fs.files[o.file] = o.size
		return 0, nil
	case "fs-read":
		size, ok := fs.files[o.file]
		if !ok {
			return 0, fmt.Errorf("storage: shared fs: no file %q", o.file)
		}
		sp := tr.Start(nil, "storage", "read", trace.L("fs", "shared"), trace.L("file", o.file), trace.L("node", o.node))
		defer sp.End()
		run(fs.disk, size)
		xfer(fs.host, o.node, size)
		return size, nil
	case "sc-put":
		run(sc.disk, o.size)
		sc.files[o.file] = o.size
		return 0, nil
	case "sc-get":
		size, ok := sc.files[o.file]
		if !ok {
			return 0, fmt.Errorf("storage: %s: no file %q", sc.node, o.file)
		}
		run(sc.disk, size)
		return size, nil
	}
	name := strings.TrimPrefix(o.kind, "os-")
	sp := tr.Start(nil, "storage", name, trace.L("bucket", o.bucket), trace.L("key", o.file), trace.L("node", o.node))
	defer sp.End()
	if store.down {
		sp.SetLabel("status", "failed")
		msg(o.node, store.host)
		msg(store.host, o.node)
		return 0, faults.Transientf("storage: object store %s: %s %s/%s: service unavailable", store.host, name, o.bucket, o.file)
	}
	b, ok := store.buckets[o.bucket]
	if !ok {
		return 0, fmt.Errorf("storage: no bucket %q", o.bucket)
	}
	if o.kind == "os-put" {
		xfer(o.node, store.host, o.size)
		run(store.srv, o.size)
		b[o.file] = o.size
		return 0, nil
	}
	size, ok := b[o.file]
	if !ok {
		return 0, fmt.Errorf("storage: no object %s/%s", o.bucket, o.file)
	}
	run(store.srv, size)
	xfer(store.host, o.node, size)
	return size, nil
}

// TestThenFormsMatchWaitingProcess: every storage op started in chained
// form ends, its continuation runs and its span closes in the order, at
// the time and with the outcome of a process that waits through the op's
// steps itself — shared-fs reads and writes contending for the host's disk
// and uplink, a local read, scratch hits and a missing file, object puts
// and gets, a missing bucket and object, and ops inside and after an
// object-store outage window, pairs of ops that end together, all
// interleaved with a process sleeping beside them.
func TestThenFormsMatchWaitingProcess(t *testing.T) {
	ms := time.Millisecond
	ops := []diffOp{
		{"write", 0, "fs-write", "w1", "", "out.dat", 1000, "err=<nil>", false},
		{"read", 0, "fs-read", "w1", "", "in.dat", 0, "size=400 err=<nil>", false},
		{"read-local", 0, "fs-read", "submit", "", "in.dat", 0, "size=400 err=<nil>", false},
		{"read-missing", 500 * ms, "fs-read", "w1", "", "ghost", 0, `no file "ghost"`, false},
		{"sc-put", 0, "sc-put", "", "", "a.dat", 500, "err=<nil>", false},
		{"sc-hit", 0, "sc-get", "", "", "hot.dat", 0, "size=300 err=<nil>", false},
		{"sc-hit-put", time.Second, "sc-get", "", "", "a.dat", 0, "size=500 err=<nil>", false},
		{"sc-missing", 200 * ms, "sc-get", "", "", "nope", 0, `no file "nope"`, false},
		{"os-put", 0, "os-put", "w1", "data", "k1", 500, "err=<nil>", false},
		{"os-get", 100 * ms, "os-get", "w1", "data", "seed", 0, "size=250 err=<nil>", false},
		{"os-no-bucket", 300 * ms, "os-put", "w1", "ghost", "k", 1, `no bucket "ghost"`, false},
		{"os-no-object", 300 * ms, "os-get", "w1", "data", "missing", 0, "no object data/missing", false},
		{"os-outage-get", 3 * time.Second, "os-get", "w1", "data", "seed", 0, "service unavailable", false},
		{"os-outage-put", 3100 * ms, "os-put", "w1", "data", "k2", 200, "service unavailable", false},
		{"os-after", 3600 * ms, "os-get", "w1", "data", "seed", 0, "size=250 err=<nil>", false},
		// Pairs that end together, the second always a waiting process.
		{"read-a", 5 * time.Second, "fs-read", "w1", "", "in.dat", 0, "size=400 err=<nil>", false},
		{"read-b", 5 * time.Second, "fs-read", "w1", "", "in.dat", 0, "size=400 err=<nil>", true},
		{"sc-get-a", 5 * time.Second, "sc-get", "", "", "hot.dat", 0, "size=300 err=<nil>", false},
		{"sc-get-b", 5 * time.Second, "sc-get", "", "", "hot.dat", 0, "size=300 err=<nil>", true},
		{"os-get-a", 5 * time.Second, "os-get", "w1", "data", "seed", 0, "size=250 err=<nil>", false},
		{"os-get-b", 5 * time.Second, "os-get", "w1", "data", "seed", 0, "size=250 err=<nil>", true},
		{"write-a", 8 * time.Second, "fs-write", "w1", "", "x.dat", 300, "err=<nil>", false},
		{"write-b", 8 * time.Second, "fs-write", "w1", "", "y.dat", 300, "err=<nil>", true},
		{"sc-put-a", 8 * time.Second, "sc-put", "", "", "x.dat", 300, "err=<nil>", false},
		{"sc-put-b", 8 * time.Second, "sc-put", "", "", "y.dat", 300, "err=<nil>", true},
		{"os-put-a", 8 * time.Second, "os-put", "w1", "data", "x", 300, "err=<nil>", false},
		{"os-put-b", 8 * time.Second, "os-put", "w1", "data", "y", 300, "err=<nil>", true},
	}
	run := func(chained bool) []string {
		env := sim.NewEnv(1)
		tr := trace.New(env)
		net := testNet(env)
		w := diffWorld{
			fs:    NewSharedFS(env, net, "submit", 1000),
			sc:    NewScratch("w1", NewDisk(env, "w1", 1000)),
			store: NewObjectStore(env, net, "submit", 1000),
		}
		w.fs.Touch("in.dat", 400)
		w.sc.files["hot.dat"] = 300
		w.store.Seed("data", "seed", 250)
		var log []string
		note := func(name string, size int64, err error) {
			log = append(log, fmt.Sprintf("%s@%v size=%d err=%v", name, env.Now(), size, err))
		}
		env.Go("ticker", func(p *sim.Proc) {
			for i := 0; i < 48; i++ {
				p.Sleep(250 * ms)
				note("tick", 0, nil)
			}
		})
		env.At(3*time.Second, func() { w.store.down = true })
		env.At(3500*ms, func() { w.store.down = false })
		for _, o := range ops {
			if chained && !o.waits {
				env.At(o.at, func() {
					env.Defer(func() { w.chain(o, func(size int64, err error) { note(o.name, size, err) }) })
				})
				continue
			}
			env.At(o.at, func() {
				env.Go(o.name, func(p *sim.Proc) {
					size, err := w.wait(p, env, o)
					note(o.name, size, err)
				})
			})
		}
		env.Run()
		for _, sp := range tr.Spans() {
			log = append(log, fmt.Sprintf("span %d %s/%s %v..%v %v", sp.ID(), sp.Substrate(), sp.Name(), sp.Start(), sp.EndTime(), sp.Labels()))
		}
		return log
	}
	procs, chain := run(false), run(true)
	if !slices.Equal(procs, chain) {
		t.Errorf("chained log\n%s\nwaiting-process log\n%s", strings.Join(chain, "\n"), strings.Join(procs, "\n"))
	}
	for _, o := range ops {
		i := slices.IndexFunc(chain, func(line string) bool { return strings.HasPrefix(line, o.name+"@") })
		if i < 0 || !strings.Contains(chain[i], o.wantLine) {
			t.Errorf("%s: no line with %q in\n%s", o.name, o.wantLine, strings.Join(chain, "\n"))
		}
	}
}
