package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.uint32() == b.uint32() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("%d/100 identical draws across seeds", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGIntnRange(t *testing.T) {
	if err := quick.Check(func(seed uint64, n uint16) bool {
		bound := int(n%1000) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(bound)
			if v < 0 || v >= bound {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(99)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %f, want ~0.5", mean)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(3)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / n
	if math.Abs(mean-1.0) > 0.02 {
		t.Errorf("exp mean = %f, want ~1", mean)
	}
}

func TestJitterBounds(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		d := 10 * time.Second
		j := r.Jitter(d, 0.2)
		return j >= 8*time.Second && j < 12*time.Second
	}, nil); err != nil {
		t.Error(err)
	}
	r := NewRNG(1)
	if r.Jitter(time.Second, 0) != time.Second {
		t.Error("zero-frac jitter changed the duration")
	}
}

func TestForkIndependence(t *testing.T) {
	parent := NewRNG(11)
	child := parent.Fork()
	// The child stream should not replay the parent's.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.uint32() == child.uint32() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("%d/100 identical draws between parent and fork", same)
	}
}
