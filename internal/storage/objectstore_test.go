package storage

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// storeOps counts the GETs and PUTs a traced run issued, by their spans.
func storeOps(tr *trace.Tracer) (gets, puts int) {
	for _, sp := range tr.Spans() {
		switch {
		case sp.Substrate() != "storage":
		case sp.Name() == "get":
			gets++
		case sp.Name() == "put":
			puts++
		}
	}
	return gets, puts
}

func newStore(t *testing.T) (*sim.Env, *ObjectStore) {
	t.Helper()
	env := sim.NewEnv(1)
	net := testNet(env) // from storage_test.go: submit + w1 at 1000 B/s
	os := NewObjectStore(env, net, "submit", 1000)
	os.buckets["data"] = map[string]int64{}
	return env, os
}

func TestObjectStorePutGetRoundTrip(t *testing.T) {
	env, store := newStore(t)
	tr := trace.New(env)
	env.Go("client", func(p *sim.Proc) {
		if err := storePut(p, store, "w1", "data", "m1.dat", 500); err != nil {
			t.Fatal(err)
		}
		size, err := storeGet(p, store, "w1", "data", "m1.dat")
		if err != nil || size != 500 {
			t.Fatalf("Get = %d, %v", size, err)
		}
		// 500 B up + 500 B down at 1000 B/s + service time + latencies.
		if p.Now() < time.Second {
			t.Errorf("round trip took %v, expected ≥1s of transfer", p.Now())
		}
	})
	env.Run()
	if gets, puts := storeOps(tr); gets != 1 || puts != 1 {
		t.Errorf("ops = %d gets, %d puts", gets, puts)
	}
}

func TestObjectStoreErrors(t *testing.T) {
	env, store := newStore(t)
	env.Go("client", func(p *sim.Proc) {
		if err := storePut(p, store, "w1", "ghost", "k", 1); err == nil {
			t.Error("put to missing bucket succeeded")
		}
		if _, err := storeGet(p, store, "w1", "data", "missing"); err == nil {
			t.Error("get of missing object succeeded")
		}
	})
	env.Run()
}

func TestObjectStoreServiceBandwidthShared(t *testing.T) {
	env, store := newStore(t)
	store.Seed("data", "a", 500)
	store.Seed("data", "b", 500)
	var done [2]time.Duration
	for i, key := range []string{"a", "b"} {
		i, key := i, key
		env.Go("client", func(p *sim.Proc) {
			if _, err := storeGet(p, store, "w1", "data", key); err != nil {
				t.Error(err)
			}
			done[i] = p.Now()
		})
	}
	env.Run()
	// Two 500 B reads share the 1000 B/s service: service phase ≈1s, then
	// the w1-bound transfers also share the submit egress.
	for i, d := range done {
		if d < time.Second {
			t.Errorf("get %d finished at %v; service bandwidth not shared", i, d)
		}
	}
}
