package httpfn

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/sim"
)

func poolMats() (*matrix.Matrix, *matrix.Matrix) {
	rng := sim.NewRNG(31)
	a := matrix.New(60, 60)
	b := matrix.New(60, 60)
	a.Rand(rng.Uint64, -100, 100)
	b.Rand(rng.Uint64, -100, 100)
	return a, b
}

func TestPoolServesAtFloor(t *testing.T) {
	p, err := NewPool(4, 1, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var n *atomic.Int64
	p.bases[0], n = countInvokes(t, p.bases[0])
	a, b := poolMats()
	want := a.Mul(b)
	for i := 0; i < 3; i++ {
		got, err := p.Invoke(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("wrong product")
		}
	}
	if p.Replicas() != 1 {
		t.Errorf("Replicas = %d after sequential load, want 1", p.Replicas())
	}
	if n.Load() != 3 {
		t.Errorf("invocations = %d", n.Load())
	}
}

func TestPoolScalesOutUnderConcurrency(t *testing.T) {
	p, err := NewPool(1, 1, 4, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	a, b := poolMats()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Invoke(a, b); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if p.Replicas() < 2 {
		t.Errorf("Replicas = %d after 8-way burst at target 1, want > 1", p.Replicas())
	}
	if p.ColdStarts == 0 {
		t.Error("no cold starts recorded during scale-out")
	}
}

func TestPoolRejectsBadBounds(t *testing.T) {
	if _, err := NewPool(0, 1, 2, 0); err == nil {
		t.Error("target 0 accepted")
	}
	if _, err := NewPool(1, 2, 1, 0); err == nil {
		t.Error("max < min accepted")
	}
}
