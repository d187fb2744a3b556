package sim

// Chan is an unbounded FIFO queue drained by one handler: the work queue a
// control loop owns. Any process or event callback may Send, and a send
// never blocks. The handler, bound at construction, pops with Recv until
// the queue is empty, which arms it; a Send or Close on an armed queue
// runs the handler again from the back of the run queue, where a receiving
// process would have resumed. A handler that waits mid-drain leaves the
// queue unarmed, and its continuation resumes the drain.
type Chan[T any] struct {
	q      ring[T]
	env    *Env
	h      func()
	armed  bool
	closed bool
}

// NewUnbounded returns an empty, open, unarmed queue whose handler h runs
// in env's run queue; its owner runs h, or Defers it, to start draining.
func NewUnbounded[T any](env *Env, h func()) *Chan[T] { return &Chan[T]{env: env, h: h} }

// Send appends v. Sending on a closed queue panics, as with Go channels.
func (c *Chan[T]) Send(v T) {
	if c.closed {
		panic("sim: send on closed Chan")
	}
	c.q.push(v)
	c.wake()
}

// Recv pops the next value, or reports false and arms the queue when it is
// empty. Values sent before Close are still delivered; once the queue is
// closed and drained, Recv reports false and arms nothing.
func (c *Chan[T]) Recv() (T, bool) {
	v, ok := c.q.pop()
	if !ok && !c.closed {
		c.armed = true
	}
	return v, ok
}

// Close marks the queue closed.
func (c *Chan[T]) Close() {
	if c.closed {
		panic("sim: close of closed Chan")
	}
	c.closed = true
	c.wake()
}

// wake queues the handler of an armed queue once.
func (c *Chan[T]) wake() {
	if c.armed {
		c.armed = false
		c.env.Defer(c.h)
	}
}
