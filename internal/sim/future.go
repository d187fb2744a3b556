package sim

// Future is a write-once value that processes can block on. It is the
// simulation analogue of a promise: one party calls Set, any number of
// parties call Get. The zero Future is unresolved and ready to use.
type Future[T any] struct {
	done    bool
	val     T
	waiters []*Proc
}

// NewFuture returns an unresolved future.
func NewFuture[T any]() *Future[T] { return &Future[T]{} }

// Set resolves the future with v and wakes every waiter in arrival order.
// Setting a future twice is a modelling bug and panics.
func (f *Future[T]) Set(v T) {
	if f.done {
		panic("sim: Future set twice")
	}
	f.done = true
	f.val = v
	for _, p := range f.waiters {
		p.wake()
	}
	f.waiters = nil
}

// Done reports whether the future has been resolved.
func (f *Future[T]) Done() bool { return f.done }

// Get blocks the calling process until the future resolves and returns the
// value.
func (f *Future[T]) Get(p *Proc) T {
	if !f.done {
		f.waiters = append(f.waiters, p)
		p.park()
	}
	return f.val
}
