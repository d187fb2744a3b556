package sim

// Chan is an unbounded FIFO queue drained by one receiving process: the
// work queue a control loop owns. Any process or event callback may Send,
// and a send never blocks. Use it for queues between simulation
// processes; ordinary Go channels would deadlock the cooperative scheduler.
type Chan[T any] struct {
	q ring[T]
	// recv is the resume of the process inside Recv, from its park until
	// it runs; once called it is replaced by nop, so a second Send before
	// the receiver runs does not wake it twice.
	recv   func()
	closed bool
}

// NewUnbounded returns an empty, open queue.
func NewUnbounded[T any]() *Chan[T] { return &Chan[T]{} }

// Send appends v and wakes the parked receiver, if any. Sending on a
// closed queue panics, as with Go channels.
func (c *Chan[T]) Send(v T) {
	if c.closed {
		panic("sim: send on closed Chan")
	}
	c.q.push(v)
	c.wakeRecv()
}

// Recv blocks the calling process until a value is available and pops it.
// The second result is false once the queue is closed and drained. A Chan
// has exactly one receiving loop: a Recv while another process is inside
// Recv panics.
func (c *Chan[T]) Recv(p *Proc) (T, bool) {
	if c.recv != nil {
		panic("sim: concurrent Recv on Chan")
	}
	if c.q.n == 0 && !c.closed {
		c.recv = p.resume
		p.park(stateWaiting)
		c.recv = nil
	}
	return c.q.pop()
}

// Close marks the queue closed and wakes the parked receiver. Values sent
// before Close are still delivered; Recv reports closed only once they
// have drained.
func (c *Chan[T]) Close() {
	if c.closed {
		panic("sim: close of closed Chan")
	}
	c.closed = true
	c.wakeRecv()
}

// wakeRecv wakes the parked receiver, if any.
func (c *Chan[T]) wakeRecv() {
	if w := c.recv; w != nil {
		c.recv = nop
		w()
	}
}

func nop() {}
