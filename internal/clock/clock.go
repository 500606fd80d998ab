// Package clock provides the time sources used throughout the VampOS
// simulation.
//
// The simulation runs on a virtual clock so that protocol timeouts, hang
// thresholds, rejuvenation intervals, and experiment timelines (e.g. the
// Fig. 8 latency-per-second series) are deterministic and fast: time only
// moves when the cooperative scheduler decides nothing is runnable, exactly
// like a discrete-event simulator. Wall-clock measurements for the overhead
// benchmarks are taken with the standard library directly and do not go
// through this package.
package clock

import (
	"container/heap"
	"fmt"
	"time"
)

// Epoch is the instant at which every Virtual clock starts. The concrete
// value is arbitrary; experiments report durations, never absolute times.
var Epoch = time.Date(2024, 6, 24, 0, 0, 0, 0, time.UTC)

// Virtual is a manually advanced clock with an ordered set of pending
// timers. The zero value is ready to use and reads Epoch.
//
// Virtual has one writer: the scheduler's conductor, which advances it
// and arms and stops its timers. During a parallel round the clock holds
// still: slices journal their charges and read their own shard-local time
// (sched.Thread.Elapsed), and observers such as the flight recorder only
// read it. It takes no lock.
type Virtual struct {
	offset time.Duration // elapsed since Epoch
	timers timerHeap
	nextID int64
}

// NewVirtual returns a virtual clock positioned at Epoch.
func NewVirtual() *Virtual { return &Virtual{} }

// Elapsed returns the total virtual time advanced since Epoch.
func (v *Virtual) Elapsed() time.Duration { return v.offset }

// At converts an offset since Epoch into an absolute instant. Shard-local
// time views (a thread's Elapsed while it runs inside a buffered round
// slice) use it to render absolute times without reading the shared offset.
func (v *Virtual) At(d time.Duration) time.Time { return Epoch.Add(d) }

// Advance moves the clock forward by d and fires, in deadline order, every
// timer whose deadline has been reached. It returns the number of timers
// fired. Advancing by a negative duration panics: the simulation never
// travels backwards, and silently accepting it would corrupt every pending
// deadline.
func (v *Virtual) Advance(d time.Duration) int {
	if d < 0 {
		panic(fmt.Sprintf("clock: Advance(%v): negative duration", d))
	}
	return v.advanceTo(v.offset + d)
}

// advanceTo moves the clock to target, firing what falls due on the way.
// A callback may arm and stop timers.
func (v *Virtual) advanceTo(target time.Duration) int {
	fired := 0
	for len(v.timers) > 0 && v.timers[0].at <= target {
		t := heap.Pop(&v.timers).(*Timer)
		// Time reaches each deadline before its callback observes Now.
		if t.at > v.offset {
			v.offset = t.at
		}
		t.fn()
		fired++
	}
	if target > v.offset {
		v.offset = target
	}
	return fired
}

// AdvanceToNext advances the clock to the next pending timer deadline and
// fires every timer due at that instant. It reports whether any timer was
// pending. The scheduler calls this when all threads are blocked.
func (v *Virtual) AdvanceToNext() bool {
	if len(v.timers) == 0 {
		return false
	}
	v.advanceTo(max(v.timers[0].at, v.offset))
	return true
}

// LeapPolls is for the scheduler's conductor alone. t is the wake timer of
// a thread that sleeps, wakes, finds nothing and sleeps again: wake-up a_i
// falls period > 0 after the last (a_0 is t's deadline) and the thread
// looks tail later. If t is the earliest pending timer, LeapPolls counts the
// wake-ups whose look, at a_i + tail, comes strictly before every other
// pending deadline and before until — no callback can fall due in them —
// and leaves the clock and t as executing those k would have: the clock at
// a_(k-1) + tail, t due at a_k under the id its k-th re-arming would have
// taken, so equal deadlines still fire in arming order. It returns k.
func (v *Virtual) LeapPolls(t *Timer, period, tail, until time.Duration) int {
	if len(v.timers) == 0 || v.timers[0] != t {
		return 0
	}
	// With t at the root, the earliest other deadline is one of its children.
	for _, o := range v.timers[1:min(3, len(v.timers))] {
		until = min(until, o.at)
	}
	room := until - tail - t.at
	if room <= 0 {
		return 0
	}
	k := (room + period - 1) / period // the i with i*period < room
	v.offset = t.at + (k-1)*period + tail
	t.at += k * period
	v.nextID += int64(k)
	t.id = v.nextID
	heap.Fix(&v.timers, 0)
	return int(k)
}

// Timer is a virtual-time callback: pending from an arming until it fires
// or is stopped. The zero value is an unarmed timer ready for Arm.
type Timer struct {
	at    time.Duration // deadline as offset from Epoch
	fn    func()
	id    int64
	index int      // heap index, -1 once fired or stopped
	owner *Virtual // nil until first armed
}

// Arm registers fn to run once the clock has advanced d past the current
// instant, on a timer the caller owns, so a timer that is armed over and
// over (a thread's sleep timer) is allocated once. The callback runs on
// the goroutine that calls Advance; a non-positive d fires on the next
// Advance call (even Advance(0)). Arming a timer that is still pending
// moves its deadline. Every arming takes a fresh creation id, so equal
// deadlines fire in arming order.
func (v *Virtual) Arm(t *Timer, d time.Duration, fn func()) {
	if fn == nil {
		panic("clock: timer with nil callback")
	}
	if d < 0 {
		d = 0
	}
	if t.owner != nil && t.index >= 0 {
		heap.Remove(&v.timers, t.index)
	}
	v.nextID++
	*t = Timer{at: v.offset + d, fn: fn, id: v.nextID, owner: v}
	heap.Push(&v.timers, t)
}

// Stop cancels the timer and reports whether it was still pending. Stopping
// an already-fired or already-stopped timer is a harmless no-op.
func (t *Timer) Stop() bool {
	if t == nil || t.owner == nil {
		return false
	}
	if t.index < 0 {
		return false
	}
	heap.Remove(&t.owner.timers, t.index)
	return true
}

// timerHeap orders timers by deadline, breaking ties by creation order so
// that equal-deadline callbacks fire in registration order.
type timerHeap []*Timer

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].id < h[j].id
}

func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *timerHeap) Push(x any) {
	t := x.(*Timer)
	t.index = len(*h)
	*h = append(*h, t)
}

func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}
