// Package aging turns a component's heap growth into rejuvenation
// decisions.
//
// The paper motivates component-level reboot with software aging:
// allocator leaks and external fragmentation that only a reboot reclaims
// (§IV). The blind answer is a fixed-interval rejuvenation timer; this
// package is the observed-health answer. A Sample is one quiescent-point
// reading of a component arena's allocated bytes. A Monitor keeps a
// sliding window of samples per component, condenses the window into a
// leak-slope Score, and applies the firing policy: threshold crossing
// with hysteresis, a per-component cooldown between proactive reboots,
// and exponential backoff after a failed or diverged restore. The
// runtime's controller keeps one Monitor per target.
//
// Like internal/ckpt, this package is pure policy and bookkeeping: no
// goroutines, no locks, no wall clock. All timestamps are virtual-clock
// offsets handed in by the caller, so campaign matrices that rejuvenate
// adaptively stay byte-identical across -parallel settings. State is
// owned by the runtime's controller thread and only touched under the
// cooperative scheduler baton.
package aging

import "time"

// Sample is one quiescent-point reading of a component's heap.
type Sample struct {
	// At is the virtual-clock offset of the reading.
	At time.Duration
	// HeapAllocated is the component arena's allocated byte count — the
	// leak sensor's raw input.
	HeapAllocated int64
}

// Score is a window of samples condensed into the leak slope and its
// ratio to the firing threshold.
type Score struct {
	// LeakSlope is the allocated-bytes growth rate in bytes per virtual
	// second across the window.
	LeakSlope float64
	// Total is LeakSlope over the policy's threshold: >= 1 means the
	// sensor crossed it. Zero when the heap did not grow or the sensor
	// is disabled.
	Total float64
	// Cause is "leak-slope" when Total is positive, empty otherwise.
	Cause string
}

// Policy is one component's (or a config-wide) rejuvenation policy. The
// zero Policy is disabled: nothing is sampled and nothing fires.
type Policy struct {
	// SamplePeriod is the virtual-clock cadence at which the controller
	// samples every monitored component. Zero disables the policy.
	SamplePeriod time.Duration
	// LeakSlope fires on allocated-bytes growth above this many bytes
	// per virtual second. Zero means DefaultLeakSlope; a negative value
	// disables the sensor.
	LeakSlope float64
	// Cooldown is the minimum virtual time between proactive reboots of
	// the same component.
	Cooldown time.Duration
}

// Enabled reports whether the policy samples and fires at all.
func (p Policy) Enabled() bool { return p.SamplePeriod > 0 }

// Policy defaults. The leak threshold is deliberately conservative:
// rejuvenation is cheap but not free, and a false positive under load
// still costs the replay tail.
const (
	DefaultLeakSlope = 1 << 20 // 1 MiB growth per virtual second
	DefaultCooldown  = 500 * time.Millisecond
)

// The firing rules every policy shares.
const (
	// window is how many samples the leak slope spans; a monitor fires
	// only with a full window.
	window = 4
	// hysteresisRatio re-arms a fired monitor only once its Total falls
	// back below this fraction of the firing level, so a component
	// hovering at the threshold cannot flap.
	hysteresisRatio = 0.5
	// backoffBase is the penalty after a failed or diverged restore; it
	// doubles per consecutive failure up to backoffMax.
	backoffBase = 250 * time.Millisecond
	backoffMax  = 8 * time.Second
)

// WithDefaults replaces zero fields with defaults (a negative LeakSlope
// stays negative: the sensor is disabled). The zero Policy stays
// disabled — defaults only flesh out a policy that was switched on by
// setting SamplePeriod.
func (p Policy) WithDefaults() Policy {
	if !p.Enabled() {
		return p
	}
	if p.LeakSlope == 0 {
		p.LeakSlope = DefaultLeakSlope
	}
	if p.Cooldown == 0 {
		p.Cooldown = DefaultCooldown
	}
	return p
}

// Stats is one monitor's lifetime accounting, exported through
// core.ComponentStats.Aging and the bench/campaign JSON.
type Stats struct {
	// Samples is the number of sensor readings observed.
	Samples uint64
	// Rejuvenations counts successful sensor-triggered reboots;
	// Failures counts failed or diverged ones (each arming backoff).
	Rejuvenations uint64
	Failures      uint64
	// Suppressed counts sample points where the monitor was over
	// threshold but cooldown or backoff blocked the reboot.
	Suppressed uint64
	// LastScore is the most recent window score; LastCause names the
	// sensor behind the most recent fired rejuvenation.
	LastScore Score
	LastCause string
	// Hot reports that the monitor is latched over threshold
	// (hysteresis has not released it).
	Hot bool
	// CooldownUntil / BackoffUntil are the virtual-clock offsets before
	// which the monitor will not fire again; BackoffLevel is the
	// consecutive-failure count driving the exponential penalty.
	CooldownUntil time.Duration
	BackoffUntil  time.Duration
	BackoffLevel  int
}

// Monitor watches one component: a sliding sample window, the firing
// latch, and the cooldown/backoff clocks. Not safe for concurrent use;
// the owning controller thread serializes access under the scheduler
// baton.
type Monitor struct {
	policy Policy
	window []Sample
	score  Score
	stats  Stats
}

// NewMonitor returns a monitor for the policy (normalized through
// WithDefaults).
func NewMonitor(p Policy) *Monitor {
	return &Monitor{policy: p.WithDefaults()}
}

// Stats returns a copy of the monitor's accounting.
func (m *Monitor) Stats() Stats { return m.stats }

// Observe appends one sensor reading, recomputes the window score, and
// updates the hysteresis latch. It returns the new score.
func (m *Monitor) Observe(s Sample) Score {
	m.stats.Samples++
	m.window = append(m.window, s)
	if len(m.window) > window {
		m.window = m.window[len(m.window)-window:]
	}
	m.score = m.computeScore()
	m.stats.LastScore = m.score
	if m.score.Total >= 1 {
		m.stats.Hot = true
	} else if m.score.Total < hysteresisRatio {
		m.stats.Hot = false
	}
	return m.score
}

// computeScore condenses the current window into a Score.
func (m *Monitor) computeScore() Score {
	var sc Score
	n := len(m.window)
	if n == 0 {
		return sc
	}
	first, last := m.window[0], m.window[n-1]
	if dt := (last.At - first.At).Seconds(); dt > 0 {
		sc.LeakSlope = float64(last.HeapAllocated-first.HeapAllocated) / dt
	}
	if t := m.policy.LeakSlope; t > 0 && sc.LeakSlope > 0 {
		sc.Total = sc.LeakSlope / t
		sc.Cause = "leak-slope"
	}
	return sc
}

// Due reports whether the monitor asks for a rejuvenation now: latched
// over threshold with a full sensor window, and neither cooldown nor
// backoff in force. A blocked firing is counted as suppressed.
func (m *Monitor) Due(now time.Duration) bool {
	if !m.policy.Enabled() || !m.stats.Hot || len(m.window) < window {
		return false
	}
	if now < m.stats.CooldownUntil || now < m.stats.BackoffUntil {
		m.stats.Suppressed++
		return false
	}
	return true
}

// NoteRejuvenation records the outcome of a proactive reboot the caller
// performed on this monitor's component. Success resets the sensor
// window (the component restarted: its aging history is void), releases
// the latch, clears the backoff and starts the cooldown. Failure — a
// failed or diverged restore — arms exponential backoff so a component
// that cannot be rejuvenated is not hammered.
func (m *Monitor) NoteRejuvenation(now time.Duration, ok bool) {
	if ok {
		m.stats.Rejuvenations++
		m.stats.LastCause = m.score.Cause
		m.stats.Hot = false
		m.stats.BackoffLevel = 0
		m.stats.BackoffUntil = 0
		m.stats.CooldownUntil = now + m.policy.Cooldown
		m.window = m.window[:0]
		m.score = Score{}
		return
	}
	m.stats.Failures++
	m.stats.BackoffLevel++
	d := backoffBase << (m.stats.BackoffLevel - 1)
	if d <= 0 || d > backoffMax {
		d = backoffMax
	}
	m.stats.BackoffUntil = now + d
}
