package sim

import (
	"testing"
	"time"
)

// The kernel's ordering contract: events fire in (at, seq) order, so
// events with equal timestamps fire in the order they were armed, and a
// process woken by an event runs before the next event fires. These tests
// pin that contract, the last one against a reference queue.

// TestFIFOSameTimestampHeap: a fan-out of events at one timestamp fires in
// arm order.
func TestFIFOSameTimestampHeap(t *testing.T) {
	env := NewEnv(1)
	var got []int
	const n = 100
	for i := 0; i < n; i++ {
		i := i
		env.At(time.Millisecond, func() { got = append(got, i) })
	}
	env.Run()
	if len(got) != n {
		t.Fatalf("fired %d, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("position %d fired id %d, want %d (full: %v)", i, v, i, got[:i+1])
		}
	}
}

// TestFIFOSameTimestampWheel: the same contract for a far timestamp, well
// beyond the interval the clock advances between arms and firing.
func TestFIFOSameTimestampWheel(t *testing.T) {
	env := NewEnv(1)
	var got []int
	const n = 100
	for i := 0; i < n; i++ {
		i := i
		env.At(200*time.Millisecond, func() { got = append(got, i) })
	}
	env.Run()
	if len(got) != n {
		t.Fatalf("fired %d, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("position %d fired id %d, want %d", i, v, i)
		}
	}
}

// TestFIFOInterleavedTimestamps: arms alternating between two timestamps
// fire by time first, and within each timestamp in arm order.
func TestFIFOInterleavedTimestamps(t *testing.T) {
	env := NewEnv(1)
	var got []int
	for i := 0; i < 50; i++ {
		i := i
		at := time.Millisecond
		if i%2 == 1 {
			at = 2 * time.Millisecond
		}
		env.At(at, func() { got = append(got, i) })
	}
	env.Run()
	// Evens (t=1ms) in order, then odds (t=2ms) in order.
	want := make([]int, 0, 50)
	for i := 0; i < 50; i += 2 {
		want = append(want, i)
	}
	for i := 1; i < 50; i += 2 {
		want = append(want, i)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %d, want %d", i, got[i], want[i])
		}
	}
}

// TestFIFOArmFromCallbackSameTick: an event armed at time T from inside a
// callback already running at T must fire after every event armed at T
// beforehand — it has a higher sequence number.
func TestFIFOArmFromCallbackSameTick(t *testing.T) {
	env := NewEnv(1)
	var got []string
	env.At(time.Millisecond, func() {
		got = append(got, "first")
		// Same-tick re-arm: At clamps t <= now to now.
		env.At(time.Millisecond, func() { got = append(got, "nested") })
	})
	env.At(time.Millisecond, func() { got = append(got, "second") })
	env.At(time.Millisecond, func() { got = append(got, "third") })
	env.Run()
	want := []string{"first", "second", "third", "nested"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestFIFOArmFromProcSameTick is the proc-context variant: a woken process
// arming a zero-delay event must see it fire after the same-timestamp
// events armed before the process woke.
func TestFIFOArmFromProcSameTick(t *testing.T) {
	env := NewEnv(1)
	var got []string
	env.Go("rearm", func(p *Proc) {
		p.Sleep(time.Millisecond)
		got = append(got, "proc")
		env.At(p.Now(), func() { got = append(got, "nested") })
	})
	env.At(time.Millisecond, func() { got = append(got, "cb1") })
	env.At(time.Millisecond, func() { got = append(got, "cb2") })
	env.Run()
	// cb1/cb2 are armed before Run, the proc's wake-up during it, so the
	// 1ms events fire cb1, cb2, wake; the nested arm lands after all three.
	want := []string{"cb1", "cb2", "proc", "nested"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestFIFOChainSurvivesCancellation: cancelling the first, interior and
// last members of a same-timestamp run must not reorder the survivors.
func TestFIFOChainSurvivesCancellation(t *testing.T) {
	env := NewEnv(1)
	var got []int
	const n = 20
	timers := make([]Timer, n)
	for i := 0; i < n; i++ {
		i := i
		timers[i] = env.At(3*time.Millisecond, func() { got = append(got, i) })
	}
	// Cancel head (0), interior (5..9), and tail (19).
	for _, i := range []int{0, 5, 6, 7, 8, 9, 19} {
		if !timers[i].Stop() {
			t.Fatalf("Stop(%d) returned false on pending timer", i)
		}
	}
	env.Run()
	want := []int{1, 2, 3, 4, 10, 11, 12, 13, 14, 15, 16, 17, 18}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if env.ncancel != 0 || len(env.events) != 0 {
		t.Errorf("accounting after run: ncancel=%d queued=%d, want 0, 0", env.ncancel, len(env.events))
	}
}

// TestFIFOProcsBeforeEvents pins the dispatch discipline the goldens
// depend on: at a given timestamp, woken processes run before further
// event callbacks fire.
func TestFIFOProcsBeforeEvents(t *testing.T) {
	env := NewEnv(1)
	var got []string
	// The sleeper is spawned first, so its wake event is armed before the
	// armer's callbacks and fires first at 1ms. The now-ready proc must run
	// before cb1 — firing every 1ms event in one go would reorder this to
	// [cb1 cb2 proc] and break golden determinism.
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(time.Millisecond)
		got = append(got, "proc")
	})
	env.Go("armer", func(p *Proc) {
		env.At(time.Millisecond, func() { got = append(got, "cb1") })
		env.At(time.Millisecond, func() { got = append(got, "cb2") })
	})
	env.Run()
	want := []string{"proc", "cb1", "cb2"}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// orderDriver is the surface orderScript runs on: arming and cancelling
// callbacks, and walkers that alternate a sleep with a body. Sleep
// durations come from next; the walker ends when next reports false.
type orderDriver struct {
	now  func() time.Duration
	at   func(t time.Duration, fn func()) (stop func() bool)
	walk func(next func() (time.Duration, bool), body func())
	run  func()
}

// orderScript is an adversarial arm/cancel/sleep script: arms at every
// horizon from sub-millisecond to hours, storms of duplicate timestamps,
// every third timer cancelled, callbacks that re-arm (some for the same
// instant), and walkers re-arming from inside the run. It returns the
// (id, time) pairs recorded as callbacks fire and walker bodies run.
func orderScript(d orderDriver) (seq []int64) {
	const grid = 250 * time.Millisecond // spacing of the duplicate-timestamp storms
	rng := NewRNG(99)
	var record func(id int) func()
	record = func(id int) func() {
		return func() {
			seq = append(seq, int64(id), int64(d.now()))
			if id%5 == 0 && id < 2000 {
				// Re-arm from the callback, a third of them for this
				// very instant.
				var delay time.Duration
				if rng.Intn(3) > 0 {
					delay = time.Duration(rng.Intn(int(time.Second)))
				}
				d.at(d.now()+delay, record(id+100_000))
			}
		}
	}
	var stops []func() bool
	for id := 0; id < 2000; id++ {
		var at time.Duration
		switch rng.Intn(4) {
		case 0: // near
			at = time.Duration(rng.Intn(int(64 * time.Millisecond)))
		case 1: // seconds
			at = time.Duration(rng.Intn(int(10 * time.Second)))
		case 2: // hours
			at = time.Duration(rng.Intn(int(2 * time.Hour)))
		case 3: // duplicate timestamps: fan-out shape
			at = time.Duration(1+rng.Intn(20)) * grid
		}
		stops = append(stops, d.at(at, record(id)))
	}
	// Cancel a third of them, so lazy drops and eager compactions both
	// happen.
	for i, stop := range stops {
		if i%3 == 0 && !stop() {
			seq = append(seq, -1, int64(i)) // a failed Stop shows as a divergence
		}
	}
	for w := 0; w < 8; w++ {
		r := NewRNG(uint64(w))
		j := 0
		next := func() (time.Duration, bool) {
			if j == 50 {
				return 0, false
			}
			if r.Intn(2) == 0 {
				// Wake on the storm grid, so a woken walker must run
				// before the callbacks due at the same instant.
				return grid - d.now()%grid, true
			}
			return time.Duration(1+r.Intn(int(3*time.Second))) * 2, true
		}
		body := func() {
			id := 2000 + w*1000 + j
			j++
			seq = append(seq, int64(id), int64(d.now()))
			d.at(d.now()+time.Duration(r.Intn(int(time.Minute))), record(id+50_000))
		}
		d.walk(next, body)
	}
	d.run()
	return seq
}

// refEvent and refQueue are the reference kernel: a flat list scanned for
// the least (at, seq) on every pop, with each walker's body run inline by
// its wake-up event — the same order the kernel's procs-first dispatch
// gives, since a woken process runs before the next event fires.
type refEvent struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type refQueue struct {
	now     time.Duration
	seq     uint64
	pending []*refEvent
	starts  []func()
}

func (q *refQueue) at(t time.Duration, fn func()) func() bool {
	if t < q.now {
		t = q.now
	}
	ev := &refEvent{at: t, seq: q.seq, fn: fn}
	q.seq++
	q.pending = append(q.pending, ev)
	return func() bool {
		for i, p := range q.pending {
			if p == ev {
				q.pending = append(q.pending[:i], q.pending[i+1:]...)
				return true
			}
		}
		return false
	}
}

func (q *refQueue) walk(next func() (time.Duration, bool), body func()) {
	var resume func()
	resume = func() {
		if d, ok := next(); ok {
			q.at(q.now+d, func() { body(); resume() })
		}
	}
	q.starts = append(q.starts, resume)
}

func (q *refQueue) run() {
	for _, start := range q.starts {
		start()
	}
	for len(q.pending) > 0 {
		min := 0
		for i, ev := range q.pending {
			if m := q.pending[min]; ev.at < m.at || ev.at == m.at && ev.seq < m.seq {
				min = i
			}
		}
		ev := q.pending[min]
		q.pending = append(q.pending[:min], q.pending[min+1:]...)
		q.now = ev.at
		ev.fn()
	}
}

// TestEventOrderMatchesReference is the strongest ordering contract test:
// the adversarial orderScript must fire the identical (id, time) sequence
// on the kernel and on the linear-scan reference queue, and the kernel's
// cancellation accounting must drain to zero.
func TestEventOrderMatchesReference(t *testing.T) {
	env := NewEnv(7)
	got := orderScript(orderDriver{
		now: env.Now,
		at: func(at time.Duration, fn func()) func() bool {
			return env.At(at, fn).Stop
		},
		walk: func(next func() (time.Duration, bool), body func()) {
			env.Go("walker", func(p *Proc) {
				for d, ok := next(); ok; d, ok = next() {
					p.Sleep(d)
					body()
				}
			})
		},
		run: func() { env.Run() },
	})
	ref := &refQueue{}
	want := orderScript(orderDriver{
		now:  func() time.Duration { return ref.now },
		at:   ref.at,
		walk: ref.walk,
		run:  ref.run,
	})
	if len(got) != len(want) {
		t.Fatalf("firing sequences differ in length: kernel %d vs reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("firing sequences diverge at %d: kernel %d vs reference %d", i, got[i], want[i])
		}
	}
	if env.Stats().Compactions == 0 {
		t.Error("script ran no compaction; it no longer covers the eager path")
	}
	if env.ncancel != 0 || len(env.events) != 0 {
		t.Errorf("accounting after drain: ncancel=%d queued=%d, want 0, 0", env.ncancel, len(env.events))
	}
}
