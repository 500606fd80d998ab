package clock

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestVirtualZeroValueReadsEpoch(t *testing.T) {
	var v Virtual
	if got := v.Now(); !got.Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", got, Epoch)
	}
	if v.Elapsed() != 0 {
		t.Fatalf("Elapsed() = %v, want 0", v.Elapsed())
	}
}

func TestAdvanceMovesNow(t *testing.T) {
	v := NewVirtual()
	v.Advance(3 * time.Second)
	v.Advance(250 * time.Millisecond)
	want := Epoch.Add(3*time.Second + 250*time.Millisecond)
	if got := v.Now(); !got.Equal(want) {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	NewVirtual().Advance(-time.Nanosecond)
}

func TestAfterFuncFiresAtDeadline(t *testing.T) {
	v := NewVirtual()
	var firedAt time.Time
	v.AfterFunc(10*time.Millisecond, func() { firedAt = v.Now() })

	if n := v.Advance(9 * time.Millisecond); n != 0 {
		t.Fatalf("fired %d timers before deadline", n)
	}
	if n := v.Advance(time.Millisecond); n != 1 {
		t.Fatalf("fired %d timers at deadline, want 1", n)
	}
	if want := Epoch.Add(10 * time.Millisecond); !firedAt.Equal(want) {
		t.Fatalf("callback saw Now()=%v, want %v", firedAt, want)
	}
}

func TestAfterFuncZeroDelayFiresOnNextAdvance(t *testing.T) {
	v := NewVirtual()
	fired := false
	v.AfterFunc(0, func() { fired = true })
	v.Advance(0)
	if !fired {
		t.Fatal("zero-delay timer did not fire on Advance(0)")
	}
}

func TestTimersFireInDeadlineOrder(t *testing.T) {
	v := NewVirtual()
	var order []int
	v.AfterFunc(30*time.Millisecond, func() { order = append(order, 3) })
	v.AfterFunc(10*time.Millisecond, func() { order = append(order, 1) })
	v.AfterFunc(20*time.Millisecond, func() { order = append(order, 2) })
	v.Advance(time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order = %v, want [1 2 3]", order)
	}
}

func TestEqualDeadlinesFireInRegistrationOrder(t *testing.T) {
	v := NewVirtual()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		v.AfterFunc(time.Millisecond, func() { order = append(order, i) })
	}
	v.Advance(time.Millisecond)
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestStopCancelsPendingTimer(t *testing.T) {
	v := NewVirtual()
	fired := false
	timer := v.AfterFunc(time.Millisecond, func() { fired = true })
	if !timer.Stop() {
		t.Fatal("Stop() = false for pending timer")
	}
	if timer.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	v.Advance(time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestStopAfterFireReturnsFalse(t *testing.T) {
	v := NewVirtual()
	timer := v.AfterFunc(time.Millisecond, func() {})
	v.Advance(time.Millisecond)
	if timer.Stop() {
		t.Fatal("Stop() = true after timer fired")
	}
}

func TestStopNilTimerIsNoOp(t *testing.T) {
	var timer *Timer
	if timer.Stop() {
		t.Fatal("Stop on nil timer returned true")
	}
}

// TestArmReusesOneTimer takes one caller-owned timer through its whole
// life: unarmed, armed, moved while pending, fired, armed again, stopped.
func TestArmReusesOneTimer(t *testing.T) {
	v := NewVirtual()
	var timer Timer
	fired := 0
	fn := func() { fired++ }
	if timer.Stop() {
		t.Fatal("Stop on a never-armed timer returned true")
	}
	v.Arm(&timer, 10*time.Millisecond, fn)
	v.Arm(&timer, 2*time.Millisecond, fn) // still pending: the deadline moves
	if n := v.PendingTimers(); n != 1 {
		t.Fatalf("%d timers pending after re-arming one, want 1", n)
	}
	v.Advance(2 * time.Millisecond)
	if fired != 1 {
		t.Fatalf("fired %d times by the moved deadline, want 1", fired)
	}
	v.Advance(time.Second)
	if fired != 1 {
		t.Fatalf("fired %d times: the first deadline survived the re-arm", fired)
	}
	v.Arm(&timer, time.Millisecond, fn)
	if !timer.Stop() {
		t.Fatal("Stop() = false for a re-armed, pending timer")
	}
	v.Arm(&timer, time.Millisecond, fn)
	v.Advance(time.Millisecond)
	if fired != 2 || v.PendingTimers() != 0 {
		t.Fatalf("fired %d times with %d pending, want 2 and 0", fired, v.PendingTimers())
	}
}

// TestArmTakesAFreshPlaceAmongEqualDeadlines: a re-armed timer queues
// behind timers armed earlier for the same instant, although it is older.
func TestArmTakesAFreshPlaceAmongEqualDeadlines(t *testing.T) {
	v := NewVirtual()
	var order []string
	var old Timer
	v.Arm(&old, time.Millisecond, func() { order = append(order, "old") })
	v.Advance(time.Millisecond)
	v.AfterFunc(time.Millisecond, func() { order = append(order, "new") })
	v.Arm(&old, time.Millisecond, func() { order = append(order, "old") })
	v.Advance(time.Millisecond)
	if len(order) != 3 || order[1] != "new" || order[2] != "old" {
		t.Fatalf("fire order %v, want [old new old]", order)
	}
}

func TestArmAndFireAllocateNothing(t *testing.T) {
	v := NewVirtual()
	var timer Timer
	fn := func() {}
	if n := testing.AllocsPerRun(100, func() {
		v.Arm(&timer, time.Microsecond, fn)
		v.AdvanceToNext()
	}); n != 0 {
		t.Fatalf("%v allocations per arm and fire, want 0", n)
	}
}

func TestAdvanceToNext(t *testing.T) {
	v := NewVirtual()
	if v.AdvanceToNext() {
		t.Fatal("AdvanceToNext() = true with no timers")
	}
	fired := false
	v.AfterFunc(42*time.Millisecond, func() { fired = true })
	if !v.AdvanceToNext() {
		t.Fatal("AdvanceToNext() = false with a pending timer")
	}
	if !fired {
		t.Fatal("timer did not fire")
	}
	if got, want := v.Elapsed(), 42*time.Millisecond; got != want {
		t.Fatalf("Elapsed() = %v, want %v", got, want)
	}
}

func TestAdvanceToNextFiresEverythingDueAtThatInstant(t *testing.T) {
	v := NewVirtual()
	var order []string
	v.AfterFunc(5, func() {
		order = append(order, "first")
		// Armed from a callback for the instant being fired: still due.
		v.AfterFunc(0, func() { order = append(order, "armed-in-callback") })
	})
	v.AfterFunc(5, func() { order = append(order, "second") })
	v.AfterFunc(6, func() { order = append(order, "later") })
	v.AdvanceToNext()
	if got := strings.Join(order, ","); got != "first,second,armed-in-callback" || v.Elapsed() != 5 {
		t.Fatalf("fired %q at %v", got, v.Elapsed())
	}
}

// pollRounds does by hand what LeapPolls predicts: k times over, advance to
// the poll timer, pay tail, re-arm it d later.
func pollRounds(v *Virtual, t *Timer, k int, d, tail time.Duration) {
	for i := 0; i < k; i++ {
		v.AdvanceToNext()
		v.Advance(tail)
		v.Arm(t, d, t.fn)
	}
}

// Property: whatever else is pending, LeapPolls leaves the clock, the
// timer, the id counter and so the firing order exactly where executing
// the polls it counted would have, and it counts every poll that no other
// timer and no deadline can touch — the next one is touched.
func TestLeapPollsMatchesExecutedPolls(t *testing.T) {
	f := func(dRaw, tailRaw uint8, untilRaw uint16, others []uint8, first bool) bool {
		d := time.Duration(dRaw%5) + 1
		tail := time.Duration(tailRaw % 3)
		until := time.Duration(untilRaw % 300)
		var order [2][]int
		var clocks [2]*Virtual
		var polls [2]Timer
		for run := range clocks {
			run, v := run, NewVirtual()
			clocks[run] = v
			arm := func() {
				for i, o := range others {
					i := i
					v.AfterFunc(time.Duration(o), func() { order[run] = append(order[run], i) })
				}
			}
			if !first {
				arm()
			}
			v.Arm(&polls[run], d, func() { order[run] = append(order[run], -1) })
			if first {
				arm()
			}
		}
		leapt, walked := clocks[0], clocks[1]
		earliest := leapt.timers[0] == &polls[0]
		barrier := until
		for _, o := range leapt.timers {
			if o != &polls[0] {
				barrier = min(barrier, o.at)
			}
		}
		k := leapt.LeapPolls(&polls[0], d+tail, tail, until)
		pollRounds(walked, &polls[1], k, d, tail)
		// The walk fired the k wake-ups and, if the count is right, nothing else.
		if len(order[1]) != k || slices.ContainsFunc(order[1], func(i int) bool { return i != -1 }) {
			t.Logf("k=%d but walking them fired %v", k, order[1])
			return false
		}
		order[1] = nil
		if leapt.Elapsed() != walked.Elapsed() || polls[0].at != polls[1].at ||
			polls[0].id != polls[1].id || leapt.nextID != walked.nextID {
			t.Logf("k=%d: clock %v/%v, at %v/%v, id %d/%d", k, leapt.Elapsed(), walked.Elapsed(),
				polls[0].at, polls[1].at, polls[0].id, polls[1].id)
			return false
		}
		// Maximal: the next look meets another timer or the deadline.
		if !earliest && k != 0 || earliest && polls[0].at+tail < barrier {
			t.Logf("k=%d (earliest %v): next look %v, barrier %v", k, earliest, polls[0].at+tail, barrier)
			return false
		}
		for _, v := range clocks {
			v.Advance(time.Second)
		}
		return reflect.DeepEqual(order[0], order[1])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestLeapPollsLeavesOtherTimersAlone(t *testing.T) {
	v := NewVirtual()
	var poll, other Timer
	v.Arm(&other, 1, func() {})
	v.Arm(&poll, 2, func() {})
	// Not the earliest timer, not pending, or no room: nothing moves.
	if k := v.LeapPolls(&poll, 3, 1, 100); k != 0 || v.Elapsed() != 0 {
		t.Fatalf("leapt %d past an earlier timer", k)
	}
	if k := v.LeapPolls(&Timer{}, 3, 1, 100); k != 0 {
		t.Fatalf("leapt %d on an unarmed timer", k)
	}
	other.Stop()
	if k := v.LeapPolls(&poll, 3, 1, 3); k != 0 || v.Elapsed() != 0 || poll.at != 2 {
		t.Fatalf("leapt %d with the deadline on the first look", k)
	}
	if k := v.LeapPolls(&poll, 3, 1, 4); k != 1 || v.Elapsed() != 3 || poll.at != 5 {
		t.Fatalf("k=%d clock=%v at=%v, want one poll: clock 3, due 5", k, v.Elapsed(), poll.at)
	}
}

func TestNextDeadline(t *testing.T) {
	v := NewVirtual()
	if _, ok := v.NextDeadline(); ok {
		t.Fatal("NextDeadline reported a deadline with no timers")
	}
	v.AfterFunc(5*time.Millisecond, func() {})
	dl, ok := v.NextDeadline()
	if !ok {
		t.Fatal("NextDeadline() not ok with pending timer")
	}
	if want := Epoch.Add(5 * time.Millisecond); !dl.Equal(want) {
		t.Fatalf("NextDeadline() = %v, want %v", dl, want)
	}
}

func TestTimerCallbackMayRegisterTimers(t *testing.T) {
	v := NewVirtual()
	secondFired := false
	v.AfterFunc(time.Millisecond, func() {
		v.AfterFunc(time.Millisecond, func() { secondFired = true })
	})
	v.Advance(2 * time.Millisecond)
	if !secondFired {
		t.Fatal("timer registered from a callback did not fire")
	}
}

func TestPendingTimers(t *testing.T) {
	v := NewVirtual()
	a := v.AfterFunc(time.Millisecond, func() {})
	v.AfterFunc(2*time.Millisecond, func() {})
	if got := v.PendingTimers(); got != 2 {
		t.Fatalf("PendingTimers() = %d, want 2", got)
	}
	a.Stop()
	if got := v.PendingTimers(); got != 1 {
		t.Fatalf("PendingTimers() = %d after Stop, want 1", got)
	}
	v.Advance(time.Second)
	if got := v.PendingTimers(); got != 0 {
		t.Fatalf("PendingTimers() = %d after Advance, want 0", got)
	}
}

// Property: for any sequence of non-negative advances, Elapsed equals
// their sum, regardless of interleaved timer registrations.
func TestAdvanceSumProperty(t *testing.T) {
	f := func(steps []uint16) bool {
		v := NewVirtual()
		var sum time.Duration
		for _, s := range steps {
			d := time.Duration(s) * time.Microsecond
			v.AfterFunc(d/2, func() {})
			v.Advance(d)
			sum += d
		}
		return v.Elapsed() == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkArmFire: arm a reused timer and advance the clock to it — what
// one Thread.Sleep costs in this package.
func BenchmarkArmFire(b *testing.B) {
	v := NewVirtual()
	var timer Timer
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.Arm(&timer, time.Microsecond, fn)
		v.AdvanceToNext()
	}
}

// BenchmarkAdvance: charge a cost-model increment with a timer pending
// but not due — what every Thread.Charge on the conductor costs here.
func BenchmarkAdvance(b *testing.B) {
	v := NewVirtual()
	var timer Timer
	v.Arm(&timer, time.Hour, func() {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.Advance(time.Nanosecond)
	}
}
