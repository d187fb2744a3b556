package parallel

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunIndexesResultsByUnit(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		got := Run(40, workers, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunWorkerCountInvariance(t *testing.T) {
	fn := func(i int) float64 { return float64(i) * 1.37 }
	seq := Run(31, 1, fn)
	for _, workers := range []int{2, 3, 8} {
		par := Run(31, workers, fn)
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d result differs from sequential", workers)
		}
	}
}

func TestRunZeroAndNegative(t *testing.T) {
	if got := Run(0, 4, func(i int) int { return i }); got != nil {
		t.Errorf("n=0: got %v, want nil", got)
	}
	if got := Run(-3, 4, func(i int) int { return i }); got != nil {
		t.Errorf("n<0: got %v, want nil", got)
	}
}

// TestRunWorkersZeroDefaults exercises the workers<=0 → GOMAXPROCS default;
// with more units than any sane core count every unit must still run exactly
// once.
func TestRunWorkersZeroDefaults(t *testing.T) {
	var calls atomic.Int64
	got := Run(257, 0, func(i int) int {
		calls.Add(1)
		return i
	})
	if calls.Load() != 257 {
		t.Errorf("calls = %d, want 257", calls.Load())
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

// TestRunPanicPropagatesAfterDrain asserts the pool contract on a panicking
// rep: the caller sees the original panic value, no further units start
// after the panic is observed, and every started unit ran to completion
// (the pool drains rather than abandoning goroutines mid-flight). Every
// other unit sleeps 1 ms: with no-op units, the worker that claims unit 7
// could be preempted before it stops the pool while the rest finished all
// 992 remaining units inside one scheduler time slice, so started reached
// 1000 under CPU load. A millisecond per unit makes that window ~250 ms.
func TestRunPanicPropagatesAfterDrain(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var started, finished atomic.Int64
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: no panic propagated", workers)
				}
				if r != "rep 7 exploded" {
					t.Fatalf("workers=%d: panic value %v", workers, r)
				}
			}()
			Run(1000, workers, func(i int) int {
				started.Add(1)
				defer finished.Add(1)
				if i == 7 {
					panic("rep 7 exploded")
				}
				time.Sleep(time.Millisecond)
				return i
			})
		}()
		// Drain invariant: everything that entered fn either returned or
		// was the panicking unit itself.
		if s, f := started.Load(), finished.Load(); s != f {
			t.Errorf("workers=%d: started %d != finished %d (pool abandoned work)", workers, s, f)
		}
		// Stop invariant: the panic halts scheduling well before the full
		// unit count; allow everything the pool may have legitimately begun.
		if s := started.Load(); s == 1000 {
			t.Errorf("workers=%d: pool ran all units despite early panic", workers)
		}
	}
}
