package sim

// Future is a write-once value that processes and continuations can wait
// on. It is the simulation analogue of a promise: one party calls Set, any
// number of parties call Get or Then. The zero Future is unresolved and
// ready to use, so it can be embedded by value.
type Future[T any] struct {
	done bool
	val  T
	// waiters enqueue themselves when called: a process blocked in Get
	// is its resume, and a Then waiter's closure carries its Env, so the
	// Future itself holds no Env.
	waiters []func()
}

// Set resolves the future with v and enqueues every waiter, processes and
// continuations alike, in arrival order. Setting a future twice is a
// modelling bug and panics.
func (f *Future[T]) Set(v T) {
	if f.done {
		panic("sim: Future set twice")
	}
	f.done = true
	f.val = v
	for _, w := range f.waiters {
		w()
	}
	clear(f.waiters)
	f.waiters = f.waiters[:0] // keep the storage for Reset
}

// Reset makes a resolved future unresolved again, for a struct that embeds
// it and is recycled. The waiter list keeps its storage, so the next Get
// on a recycled future allocates nothing.
func (f *Future[T]) Reset() {
	var zero T
	f.done, f.val = false, zero
}

// Done reports whether the future has been resolved.
func (f *Future[T]) Done() bool { return f.done }

// Value returns the resolved value, or the zero value before Set.
func (f *Future[T]) Value() T { return f.val }

// Get blocks the calling process until the future resolves and returns the
// value.
func (f *Future[T]) Get(p *Proc) T {
	if !f.done {
		f.Notify(p.resume)
		p.park(stateWaiting)
	}
	return f.val
}

// Notify is Then for a continuation that queues itself: Set calls fn, in
// arrival order with the other waiters, and Notify calls it at once when
// the future has resolved. fn runs inside Set, so it must only queue work,
// as a process's resume does. A caller that binds fn once waits without
// the closure Then allocates.
func (f *Future[T]) Notify(fn func()) {
	if f.done {
		fn()
		return
	}
	f.waiters = append(f.waiters, fn)
}

// Then is the continuation form of Get: fn runs at once when the future has
// resolved, and otherwise from env's run queue after Set, in arrival order
// with the processes blocked in Get. fn reads the result with Value.
func (f *Future[T]) Then(env *Env, fn func()) {
	if f.done {
		fn()
		return
	}
	f.Notify(func() { env.Defer(fn) })
}
