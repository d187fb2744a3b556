// Package parallel is the deterministic replication runner behind the
// experiment harness: every reported number in the paper is an average over
// seeded repetitions, each repetition is an isolated sim.Env, and nothing in
// one repetition reads another's state — the same observation that lets
// serverless DAG engines fan out independent stages aggressively. The runner
// exploits it on the host side: it executes the per-unit closures on a
// bounded worker pool and returns the results indexed by unit, so downstream
// aggregation (performed sequentially, in index order) is byte-identical to a
// sequential run regardless of how the pool interleaved the work. The
// experiments package maps its (cell, rep) grids and rep seeds onto units in
// one place, its sweep helper.
//
// Determinism contract:
//
//   - fn(i) must derive all randomness from its arguments and must not touch
//     shared mutable state.
//   - Run's result slice is indexed by i; callers fold it left-to-right, so
//     float accumulation order never depends on scheduling.
//   - A panic in any fn is re-raised on the caller's goroutine after the
//     pool drains (no goroutine leaks, no half-written results consumed).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Run executes fn(0..n-1) on min(workers, n) goroutines and returns the
// results indexed by i. workers <= 0 selects GOMAXPROCS. If any fn panics,
// Run waits for in-flight calls to finish, schedules no further work, and
// re-panics with the first recovered value.
func Run[T any](n, workers int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if workers == 1 {
		// Degenerate pool: run inline so single-worker mode is exactly the
		// old sequential loop (same goroutine, same stack for panics).
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}

	var (
		next     atomic.Int64
		stopped  atomic.Bool
		panicked atomic.Pointer[panicValue]
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicked.CompareAndSwap(nil, &panicValue{val: r})
							stopped.Store(true)
						}
					}()
					out[i] = fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if pv := panicked.Load(); pv != nil {
		// Re-panic with the original value so callers observe the same
		// panic at any worker count.
		panic(pv.val)
	}
	return out
}

type panicValue struct {
	val any
}
