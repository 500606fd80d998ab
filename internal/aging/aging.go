// Package aging turns the runtime's per-component health counters into
// rejuvenation decisions.
//
// The paper motivates component-level reboot with software aging:
// allocator leaks and external fragmentation that only a reboot reclaims
// (§IV). The blind answer is a fixed-interval rejuvenation timer; this
// package is the observed-health answer. A Sample is one quiescent-point
// reading of a component's aging sensors — allocator leak bytes and
// external fragmentation from the buddy allocator, retained-log backlog
// from the message layer, per-call latency drift and handler error rate
// from the runtime's call counters. A Monitor keeps a sliding window of
// samples per component, condenses the window into a Score, and applies
// the firing policy: threshold crossing with hysteresis, a per-component
// cooldown between proactive reboots, and exponential backoff after a
// failed or diverged restore. An Engine composes monitors over a
// dependency-ordered component list so rolling rejuvenation reboots
// providers before their dependents.
//
// Like internal/ckpt, this package is pure policy and bookkeeping: no
// goroutines, no locks, no wall clock. All timestamps are virtual-clock
// offsets handed in by the caller, so campaign matrices that rejuvenate
// adaptively stay byte-identical across -parallel settings. State is
// owned by the runtime's controller thread and only touched under the
// cooperative scheduler baton.
package aging

import "time"

// Sample is one quiescent-point reading of a component's aging sensors.
// All counters are cumulative since boot; the monitor differentiates
// them across its window.
type Sample struct {
	// At is the virtual-clock offset of the reading.
	At time.Duration
	// HeapAllocated is the component arena's allocated byte count — the
	// leak sensor's raw input.
	HeapAllocated int64
	// HeapLive is the arena's live allocation count.
	HeapLive int
	// Fragmentation is the arena's external fragmentation in [0,1]
	// (1 - largest free block / free bytes).
	Fragmentation float64
	// LogLen is the component's retained restoration-log length.
	LogLen int
	// Calls is the cumulative count of completed inbound calls.
	Calls uint64
	// Errors is the cumulative count of inbound calls that returned an
	// error.
	Errors uint64
	// Busy is the cumulative virtual time spent executing inbound calls.
	Busy time.Duration
}

// Score is a window of samples condensed into the five sensor readings,
// each compared against its threshold into a normalized total.
type Score struct {
	// LeakSlope is the allocated-bytes growth rate in bytes per virtual
	// second across the window.
	LeakSlope float64
	// Fragmentation is the newest sample's external fragmentation.
	Fragmentation float64
	// LogBacklog is the newest sample's retained-log length.
	LogBacklog int
	// LatencyDrift is the window's mean per-call virtual latency divided
	// by the baseline mean captured from the first full window (1 = no
	// drift; 0 when no baseline exists yet).
	LatencyDrift float64
	// ErrorRate is the fraction of calls across the window that returned
	// an error.
	ErrorRate float64
	// Total is the maximum of the per-sensor observed/threshold ratios:
	// >= 1 means at least one sensor crossed its threshold. Sensors with
	// a disabled threshold contribute nothing.
	Total float64
	// Cause names the dominant sensor ("leak-slope", "fragmentation",
	// "log-backlog", "latency-drift", "error-rate"), empty when Total is
	// zero.
	Cause string
}

// Thresholds are the per-sensor firing levels. A zero field is replaced
// by its default in Policy.WithDefaults; a negative field disables that
// sensor entirely.
type Thresholds struct {
	// LeakSlope fires on allocated-bytes growth above this many bytes
	// per virtual second.
	LeakSlope float64
	// Fragmentation fires on external fragmentation above this value.
	Fragmentation float64
	// LogBacklog fires when the retained log exceeds this many records.
	LogBacklog int
	// LatencyDrift fires when mean per-call latency exceeds baseline by
	// this factor.
	LatencyDrift float64
	// ErrorRate fires when the window's handler error fraction exceeds
	// this value.
	ErrorRate float64
}

// Policy is one component's (or a config-wide) rejuvenation policy. The
// zero Policy is disabled: sensors are never sampled and nothing fires.
type Policy struct {
	// SamplePeriod is the virtual-clock cadence at which the controller
	// samples every monitored component. Zero disables the policy.
	SamplePeriod time.Duration
	// Window is how many samples the slope/drift/error sensors span.
	Window int
	// Thresholds are the per-sensor firing levels.
	Thresholds Thresholds
	// HysteresisRatio re-arms a fired monitor only once its Total falls
	// back below this fraction of the firing level, so a component
	// hovering at the threshold cannot flap.
	HysteresisRatio float64
	// Cooldown is the minimum virtual time between proactive reboots of
	// the same component.
	Cooldown time.Duration
	// BackoffBase is the penalty after a failed or diverged restore;
	// it doubles per consecutive failure up to BackoffMax.
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff.
	BackoffMax time.Duration
}

// Enabled reports whether the policy samples and fires at all.
func (p Policy) Enabled() bool { return p.SamplePeriod > 0 }

// Policy defaults. The sensor thresholds are deliberately conservative:
// rejuvenation is cheap but not free, and a false positive under load
// still costs the replay tail.
const (
	DefaultSamplePeriod    = 50 * time.Millisecond
	DefaultWindow          = 8
	DefaultLeakSlope       = 1 << 20 // 1 MiB growth per virtual second
	DefaultFragmentation   = 0.5
	DefaultLogBacklog      = 4096
	DefaultLatencyDrift    = 4.0
	DefaultErrorRate       = 0.5
	DefaultHysteresisRatio = 0.5
	DefaultCooldown        = 500 * time.Millisecond
	DefaultBackoffBase     = 250 * time.Millisecond
	DefaultBackoffMax      = 8 * time.Second
)

// WithDefaults replaces zero fields with defaults (negative thresholds
// stay negative: that sensor is disabled). The zero Policy stays
// disabled — defaults only flesh out a policy that was switched on by
// setting SamplePeriod or by DefaultPolicy.
func (p Policy) WithDefaults() Policy {
	if !p.Enabled() {
		return p
	}
	if p.Window == 0 {
		p.Window = DefaultWindow
	}
	if p.Thresholds.LeakSlope == 0 {
		p.Thresholds.LeakSlope = DefaultLeakSlope
	}
	if p.Thresholds.Fragmentation == 0 {
		p.Thresholds.Fragmentation = DefaultFragmentation
	}
	if p.Thresholds.LogBacklog == 0 {
		p.Thresholds.LogBacklog = DefaultLogBacklog
	}
	if p.Thresholds.LatencyDrift == 0 {
		p.Thresholds.LatencyDrift = DefaultLatencyDrift
	}
	if p.Thresholds.ErrorRate == 0 {
		p.Thresholds.ErrorRate = DefaultErrorRate
	}
	if p.HysteresisRatio == 0 {
		p.HysteresisRatio = DefaultHysteresisRatio
	}
	if p.Cooldown == 0 {
		p.Cooldown = DefaultCooldown
	}
	if p.BackoffBase == 0 {
		p.BackoffBase = DefaultBackoffBase
	}
	if p.BackoffMax == 0 {
		p.BackoffMax = DefaultBackoffMax
	}
	return p
}

// DefaultPolicy is the enabled policy with every default.
func DefaultPolicy() Policy {
	return Policy{SamplePeriod: DefaultSamplePeriod}.WithDefaults()
}

// Stats is one monitor's lifetime accounting, exported through
// core.Runtime.AgingStats and the bench/campaign JSON.
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
	policy   Policy
	window   []Sample
	baseline float64 // baseline mean per-call latency (virtual ns/call)
	score    Score
	stats    Stats
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
	if w := m.policy.Window; len(m.window) > w {
		m.window = m.window[len(m.window)-w:]
	}
	m.score = m.computeScore()
	m.stats.LastScore = m.score
	if m.score.Total >= 1 {
		m.stats.Hot = true
	} else if m.score.Total < m.policy.HysteresisRatio {
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
	sc.Fragmentation = last.Fragmentation
	sc.LogBacklog = last.LogLen
	if dt := (last.At - first.At).Seconds(); dt > 0 {
		sc.LeakSlope = float64(last.HeapAllocated-first.HeapAllocated) / dt
	}
	if dc := last.Calls - first.Calls; dc > 0 && last.Calls >= first.Calls {
		mean := float64(last.Busy-first.Busy) / float64(dc) // virtual ns/call
		// The baseline is the first full window with traffic: everything
		// after it is drift.
		if m.baseline == 0 && n >= m.policy.Window && mean > 0 {
			m.baseline = mean
		}
		if m.baseline > 0 {
			sc.LatencyDrift = mean / m.baseline
		}
		sc.ErrorRate = float64(last.Errors-first.Errors) / float64(dc)
	}
	type sensor struct {
		cause     string
		observed  float64
		threshold float64
	}
	t := m.policy.Thresholds
	for _, s := range []sensor{
		{"leak-slope", sc.LeakSlope, t.LeakSlope},
		{"fragmentation", sc.Fragmentation, t.Fragmentation},
		{"log-backlog", float64(sc.LogBacklog), float64(t.LogBacklog)},
		{"latency-drift", sc.LatencyDrift, t.LatencyDrift},
		{"error-rate", sc.ErrorRate, t.ErrorRate},
	} {
		if s.threshold <= 0 || s.observed <= 0 {
			continue
		}
		if ratio := s.observed / s.threshold; ratio > sc.Total {
			sc.Total = ratio
			sc.Cause = s.cause
		}
	}
	return sc
}

// Due reports whether the monitor asks for a rejuvenation now: latched
// over threshold with a full sensor window, and neither cooldown nor
// backoff in force. A blocked firing is counted as suppressed.
func (m *Monitor) Due(now time.Duration) bool {
	if !m.policy.Enabled() || !m.stats.Hot || len(m.window) < m.policy.Window {
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
		m.baseline = 0
		m.score = Score{}
		return
	}
	m.stats.Failures++
	m.stats.BackoffLevel++
	d := m.policy.BackoffBase << (m.stats.BackoffLevel - 1)
	if d <= 0 || d > m.policy.BackoffMax {
		d = m.policy.BackoffMax
	}
	m.stats.BackoffUntil = now + d
}

// Engine composes one monitor per component over a dependency-ordered
// list: Due returns candidates in that order, so a rolling rejuvenation
// pass reboots providers before the components that depend on them.
type Engine struct {
	policy Policy
	order  []string
	mons   map[string]*Monitor
}

// NewEngine returns an engine monitoring the listed components in the
// given (dependency) order.
func NewEngine(p Policy, components ...string) *Engine {
	e := &Engine{
		policy: p.WithDefaults(),
		order:  append([]string(nil), components...),
		mons:   make(map[string]*Monitor, len(components)),
	}
	for _, name := range e.order {
		e.mons[name] = NewMonitor(e.policy)
	}
	return e
}

// Policy returns the engine's normalized policy.
func (e *Engine) Policy() Policy { return e.policy }

// Components returns the monitored components in dependency order.
func (e *Engine) Components() []string {
	return append([]string(nil), e.order...)
}

// Observe feeds one sample to the named component's monitor and returns
// its new score. Samples for unmonitored components are ignored.
func (e *Engine) Observe(name string, s Sample) Score {
	m, ok := e.mons[name]
	if !ok {
		return Score{}
	}
	return m.Observe(s)
}

// Due returns the components whose monitors ask for rejuvenation now,
// in dependency order.
func (e *Engine) Due(now time.Duration) []string {
	var due []string
	for _, name := range e.order {
		if e.mons[name].Due(now) {
			due = append(due, name)
		}
	}
	return due
}

// NoteResult records a rejuvenation outcome for the named component.
func (e *Engine) NoteResult(name string, now time.Duration, ok bool) {
	if m, found := e.mons[name]; found {
		m.NoteRejuvenation(now, ok)
	}
}

// Stats returns the named component's monitor accounting.
func (e *Engine) Stats(name string) (Stats, bool) {
	m, ok := e.mons[name]
	if !ok {
		return Stats{}, false
	}
	return m.Stats(), true
}
