// Package fluid models capacity shared among concurrent jobs as a fluid
// (processor-sharing) server with max-min fairness and optional per-job rate
// caps.
//
// One abstraction covers the three contended resources in the reproduction:
//
//   - a node's CPU: capacity = cores, job work = core-seconds, a cgroup CPU
//     quota becomes a per-job cap — this is exactly the performance-isolation
//     mechanism the paper trades against execution time;
//   - a network link: capacity = bytes/second, job work = bytes transferred;
//   - a disk: capacity = bytes/second of I/O bandwidth.
//
// Rates are recomputed on every arrival and departure (an event-driven fluid
// approximation, standard in HPC and network simulators): each uncapped job
// receives an equal share of the remaining capacity, capped jobs receive at
// most their cap, and capacity unused by capped jobs is redistributed
// (water-filling).
package fluid

import (
	"fmt"
	"math"
	"time"

	"repro/internal/sim"
)

// epsilon below which remaining work counts as finished, in work units.
const eps = 1e-7

// Server is a fluid-shared resource. Create one with New; all methods must
// be called from simulation context.
//
// The server is engineered for the simulator's hot path: job structs are
// pooled, the completion callback is bound once, and the all-uncapped case
// (the overwhelmingly common one — plain processor sharing) recomputes
// rates without sorting or allocating, so a steady-state arrival/departure
// cycle of uncapped jobs allocates nothing.
type Server struct {
	env      *sim.Env
	name     string
	capacity float64
	jobs     []*job
	nextSeq  uint64
	timer    sim.Timer
	last     time.Duration
	served   float64 // total work completed, for accounting
	bounded  int     // jobs with a cap or a floor; 0 enables the fast path
	onDone   func()  // s.complete, bound once to avoid a closure per rearm
	order    []*job  // scratch for the water-filling sort
	scratch  []*job  // merge scratch for sortByHeadroom
	pool     []*job  // recycled job structs
}

type job struct {
	seq       uint64
	remaining float64
	cap       float64 // max rate; 0 means uncapped
	floor     float64 // guaranteed rate (cgroup reservation); 0 means none
	rate      float64
	then      func() // runs once the job drains
	fire      func() // releases the job and runs then; bound once per job
}

// New returns a fluid server with the given capacity in work units per
// second. It panics if capacity is not positive.
func New(env *sim.Env, name string, capacity float64) *Server {
	if capacity <= 0 {
		panic(fmt.Sprintf("fluid: capacity %v must be positive", capacity))
	}
	s := &Server{env: env, name: name, capacity: capacity}
	s.onDone = s.complete
	return s
}

// SetCapacity changes the server's capacity mid-run, settling accounts at the
// old rate first and recomputing every active job's share — the mechanism
// behind degraded-mode faults such as a registry bandwidth brownout. It
// panics if c is not positive.
func (s *Server) SetCapacity(c float64) {
	if c <= 0 {
		panic(fmt.Sprintf("fluid: capacity %v must be positive", c))
	}
	s.advance()
	s.capacity = c
	s.reschedule()
}

// Load returns the number of jobs currently in service.
func (s *Server) Load() int { return len(s.jobs) }

// RunReservedThen serves work units, sharing the server with every other
// concurrent job, and then runs then: at once when there is no work, and
// otherwise from the run queue at the job's departure, in departure order
// with the other jobs that drain at the same instant (see sim.Env.Defer).
// maxRate caps the job's service rate (0 = uncapped): a containerized task
// with a one-core cgroup quota runs with maxRate 1 on a CPU server whose
// capacity is the node's core count. floor is a guaranteed rate (0 = none),
// the cgroup reservation that makes containerized tasks immune to noisy
// neighbours (the paper's performance-isolation property). When the sum of
// floors exceeds the server's capacity, floors scale down proportionally
// (reservation oversubscription); leftover capacity above the floors is
// distributed max-min.
func (s *Server) RunReservedThen(work, maxRate, floor float64, then func()) {
	if work <= 0 {
		then()
		return
	}
	if maxRate < 0 || floor < 0 {
		panic("fluid: negative rate cap or floor")
	}
	if maxRate > 0 && floor > maxRate {
		floor = maxRate
	}
	s.advance()
	j := s.newJob(work, maxRate, floor)
	j.then = then
	s.jobs = append(s.jobs, j)
	if j.cap > 0 || j.floor > 0 {
		s.bounded++
	}
	s.reschedule()
}

// newJob takes a job struct off the pool (or allocates one) and initializes
// it for one service cycle.
func (s *Server) newJob(work, maxRate, floor float64) *job {
	var j *job
	if n := len(s.pool); n > 0 {
		j = s.pool[n-1]
		s.pool[n-1] = nil
		s.pool = s.pool[:n-1]
	} else {
		j = &job{}
		j.fire = func() {
			then := j.then
			j.then = nil
			s.pool = append(s.pool, j)
			then()
		}
	}
	j.seq = s.nextSeq
	j.remaining = work
	j.cap = maxRate
	j.floor = floor
	j.rate = 0
	s.nextSeq++
	return j
}

// advance charges elapsed virtual time against every active job at its
// current rate.
func (s *Server) advance() {
	now := s.env.Now()
	dt := (now - s.last).Seconds()
	s.last = now
	if dt <= 0 {
		return
	}
	for _, j := range s.jobs {
		done := j.rate * dt
		if done > j.remaining {
			done = j.remaining
		}
		j.remaining -= done
		s.served += done
	}
}

// recompute assigns rates: guaranteed floors first (scaled down
// proportionally if over-reserved), then the remaining capacity max-min
// fair over each job's residual headroom via water-filling.
//
// Rates are a pure function of the job list (order, caps, floors) and the
// capacity — remaining work never enters — which is what lets complete skip
// the recompute when no job departed.
func (s *Server) recompute() {
	n := len(s.jobs)
	if n == 0 {
		return
	}
	if s.bounded == 0 {
		// Fast path: no floors and no caps, so phase 1 assigns zero
		// rates and phase 2 visits jobs in insertion order with
		// unlimited headroom. Replaying exactly that arithmetic
		// (a shrinking fair share, not capacity/n, which differs in
		// the last ulp) keeps results byte-identical to the general
		// path while skipping the sort and all allocation.
		remCap := s.capacity
		for i, j := range s.jobs {
			fair := remCap / float64(n-i)
			j.rate = fair
			remCap -= fair
		}
		return
	}
	// Phase 1: floors. Scale proportionally when the server is
	// over-reserved.
	totalFloor := 0.0
	for _, j := range s.jobs {
		totalFloor += j.floor
	}
	floorScale := 1.0
	if totalFloor > s.capacity {
		floorScale = s.capacity / totalFloor
	}
	remCap := s.capacity
	for _, j := range s.jobs {
		j.rate = j.floor * floorScale
		remCap -= j.rate
	}
	if remCap <= 0 {
		return
	}
	// Phase 2: distribute the remainder max-min over residual headroom
	// (cap - floor; uncapped jobs have unlimited headroom). Ascending
	// headroom first, stable on insertion sequence for determinism.
	if cap(s.order) < n {
		s.order = make([]*job, 0, max(n, 2*cap(s.order)))
		s.scratch = make([]*job, 0, cap(s.order))
	}
	order := append(s.order[:0], s.jobs...)
	order = sortByHeadroom(order, s.scratch[:n])
	remJobs := n
	for _, j := range order {
		fair := remCap / float64(remJobs)
		extra := fair
		if h, bounded := headroom(j); bounded && h < extra {
			extra = h
		}
		j.rate += extra
		remCap -= extra
		remJobs--
	}
}

// headroom is the extra rate a job can absorb above its floor. Uncapped
// jobs report unbounded headroom.
func headroom(j *job) (h float64, bounded bool) {
	if j.cap == 0 {
		return 0, false
	}
	return j.cap - j.rate, true
}

// headroomLess orders jobs bounded-before-unbounded, then ascending
// headroom, then insertion sequence. seq is unique, so this is a strict
// total order and any correct sort yields the same permutation the
// previous sort.SliceStable did.
func headroomLess(a, b *job) bool {
	ha, ba := headroom(a)
	hb, bb := headroom(b)
	if ba != bb {
		return ba // bounded headroom before unbounded
	}
	if ba && ha != hb {
		return ha < hb
	}
	return a.seq < b.seq
}

// sortByHeadroom sorts jobs by headroomLess with a bottom-up merge sort
// over the caller's scratch space, avoiding the reflection and closure
// allocation of sort.SliceStable on the hot path. It returns the slice
// holding the sorted result (one of order or scratch).
func sortByHeadroom(order, scratch []*job) []*job {
	n := len(order)
	src, dst := order, scratch
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := lo + width
			if mid > n {
				mid = n
			}
			hi := lo + 2*width
			if hi > n {
				hi = n
			}
			i, k := lo, mid
			for out := lo; out < hi; out++ {
				if i < mid && (k >= hi || !headroomLess(src[k], src[i])) {
					dst[out] = src[i]
					i++
				} else {
					dst[out] = src[k]
					k++
				}
			}
		}
		src, dst = dst, src
	}
	return src
}

// reschedule recomputes rates and (re)arms the completion timer for the
// earliest-finishing job.
func (s *Server) reschedule() {
	s.timer.Stop()
	s.timer = sim.Timer{}
	s.recompute()
	s.rearm()
}

// rearm schedules complete for the earliest projected job completion.
func (s *Server) rearm() {
	next := math.Inf(1)
	for _, j := range s.jobs {
		if j.rate <= 0 {
			continue
		}
		if t := j.remaining / j.rate; t < next {
			next = t
		}
	}
	if math.IsInf(next, 1) {
		return
	}
	d := time.Duration(next * float64(time.Second))
	if d < time.Nanosecond {
		d = time.Nanosecond
	}
	s.timer = s.env.After(d, s.onDone)
}

// complete fires when the earliest job should have drained; it settles
// accounts, wakes finished jobs, and rearms. When rounding fired the timer
// a hair early and nothing actually departed, the rate assignment cannot
// have changed (rates do not depend on remaining work), so it skips the
// recompute and only rearms.
func (s *Server) complete() {
	s.timer = sim.Timer{}
	s.advance()
	departed := false
	kept := s.jobs[:0]
	for _, j := range s.jobs {
		if j.remaining <= eps {
			if j.cap > 0 || j.floor > 0 {
				s.bounded--
			}
			departed = true
			s.env.Defer(j.fire)
		} else {
			kept = append(kept, j)
		}
	}
	for i := len(kept); i < len(s.jobs); i++ {
		s.jobs[i] = nil
	}
	s.jobs = kept
	if !departed {
		s.rearm()
		return
	}
	s.reschedule()
}
