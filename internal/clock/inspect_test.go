package clock

import "time"

// Inspection helpers only the tests use.

// Now returns Epoch plus all time advanced so far.
func (v *Virtual) Now() time.Time { return Epoch.Add(v.offset) }

// NextDeadline returns the deadline of the earliest pending timer. The
// second result is false when no timer is pending.
func (v *Virtual) NextDeadline() (time.Time, bool) {
	if len(v.timers) == 0 {
		return time.Time{}, false
	}
	return Epoch.Add(v.timers[0].at), true
}

// PendingTimers returns the number of timers that have not yet fired or
// been stopped.
func (v *Virtual) PendingTimers() int { return len(v.timers) }

// AfterFunc is Arm on a fresh timer.
func (v *Virtual) AfterFunc(d time.Duration, fn func()) *Timer {
	t := &Timer{}
	v.Arm(t, d, fn)
	return t
}
