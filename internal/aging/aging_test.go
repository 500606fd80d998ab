package aging

import (
	"testing"
	"time"
)

// testPolicy is a small, fully explicit policy so the tests do not
// depend on the package defaults.
func testPolicy() Policy {
	return Policy{
		SamplePeriod: 10 * time.Millisecond,
		LeakSlope:    1000, // bytes per virtual second
		Cooldown:     100 * time.Millisecond,
	}
}

// leaking grows the heap 100 bytes per sample: at the tests' 10ms step
// that is 10_000 bytes/s, 10x testPolicy's threshold.
func leaking(i int) Sample { return Sample{HeapAllocated: int64(100 * i)} }

// feed observes n samples advancing virtual time by step, generating
// each sample through gen(i).
func feed(m *Monitor, n int, step time.Duration, gen func(i int) Sample) time.Duration {
	var now time.Duration
	for i := 0; i < n; i++ {
		now = time.Duration(i+1) * step
		s := gen(i)
		s.At = now
		m.Observe(s)
	}
	return now
}

func TestZeroPolicyDisabled(t *testing.T) {
	var p Policy
	if p.Enabled() {
		t.Fatal("zero policy reports enabled")
	}
	if got := p.WithDefaults(); got.Enabled() || got != (Policy{}) {
		t.Fatalf("WithDefaults fleshed out a disabled policy: %+v", got)
	}
	m := NewMonitor(p)
	feed(m, 4, 10*time.Millisecond, func(i int) Sample { return Sample{HeapAllocated: int64(i) << 30} })
	if m.Due(2 * time.Second) {
		t.Fatal("disabled monitor fired")
	}
}

func TestWithDefaultsFillsZerosKeepsNegatives(t *testing.T) {
	p := Policy{SamplePeriod: time.Millisecond}.WithDefaults()
	if p.LeakSlope != DefaultLeakSlope || p.Cooldown != DefaultCooldown {
		t.Fatalf("defaults not applied: %+v", p)
	}
	off := Policy{SamplePeriod: time.Millisecond, LeakSlope: -1}
	if got := off.WithDefaults().LeakSlope; got != -1 {
		t.Fatalf("negative threshold overwritten: %v", got)
	}
	// A disabled sensor never fires, however fast the heap grows.
	m := NewMonitor(off)
	now := feed(m, 4, 10*time.Millisecond, func(i int) Sample { return Sample{HeapAllocated: int64(i) << 30} })
	if m.Due(now) {
		t.Fatalf("disabled sensor fired: %+v", m.Score())
	}
}

func TestLeakSlopeFires(t *testing.T) {
	m := NewMonitor(testPolicy())
	// 100 bytes per 10ms = 10_000 bytes/s, 10x the 1000 B/s threshold.
	now := feed(m, 4, 10*time.Millisecond, leaking)
	if sc := m.Score(); sc.Cause != "leak-slope" || sc.Total < 1 {
		t.Fatalf("score = %+v, want leak-slope over threshold", sc)
	}
	if !m.Due(now) {
		t.Fatal("leaking component not due")
	}
}

func TestStableComponentNeverFires(t *testing.T) {
	m := NewMonitor(testPolicy())
	now := feed(m, 12, 10*time.Millisecond, func(i int) Sample {
		return Sample{HeapAllocated: 4096}
	})
	if m.Due(now) {
		t.Fatalf("stable component due; score %+v", m.Score())
	}
}

func TestDueRequiresFullWindow(t *testing.T) {
	m := NewMonitor(testPolicy())
	now := feed(m, 2, 10*time.Millisecond, leaking)
	if !m.Stats().Hot {
		t.Fatalf("two leaking samples did not cross the threshold: %+v", m.Score())
	}
	if m.Due(now) {
		t.Fatal("fired before the sensor window filled")
	}
}

func TestHysteresisLatch(t *testing.T) {
	m := NewMonitor(testPolicy())
	// Cross the leak threshold, then hover just under it: the latch
	// must hold until the score falls below threshold*ratio. A full
	// window spans 30ms, so 30 bytes of growth across it is exactly the
	// 1000 B/s threshold: the windows ending at each sample from the
	// fourth on grow 60, 27, 27 and 12 bytes — Totals 2, 0.9, 0.9, 0.4.
	heap := []int64{0, 20, 40, 60, 47, 67, 72}
	observe := func(m *Monitor, n int) {
		for i, h := range heap[:n] {
			m.Observe(Sample{At: time.Duration(i+1) * 10 * time.Millisecond, HeapAllocated: h})
		}
	}
	observe(m, len(heap))
	// 0.9 total: under the threshold but above the 0.5 hysteresis
	// ratio — the final sample (0.4 total) released it.
	if m.Stats().Hot {
		t.Fatal("latch not released below hysteresis ratio")
	}
	m2 := NewMonitor(testPolicy())
	observe(m2, 6)
	if !m2.Stats().Hot {
		t.Fatal("latch released while hovering above hysteresis ratio")
	}
}

func TestCooldownAfterSuccess(t *testing.T) {
	m := NewMonitor(testPolicy())
	now := feed(m, 4, 10*time.Millisecond, leaking)
	if !m.Due(now) {
		t.Fatal("not due before rejuvenation")
	}
	m.NoteRejuvenation(now, true)
	st := m.Stats()
	if st.Rejuvenations != 1 || st.LastCause != "leak-slope" {
		t.Fatalf("stats after success: %+v", st)
	}
	// Refill the window with aged samples inside the cooldown: must stay
	// suppressed, then fire once the cooldown passes.
	for i := 0; i < 4; i++ {
		now += 10 * time.Millisecond
		m.Observe(Sample{At: now, HeapAllocated: int64(100 * i)})
	}
	if m.Due(now) {
		t.Fatal("fired inside cooldown")
	}
	if m.Stats().Suppressed == 0 {
		t.Fatal("suppressed firing not counted")
	}
	after := st.CooldownUntil + time.Millisecond
	if !m.Due(after) {
		t.Fatal("not due after cooldown expired")
	}
}

func TestExponentialBackoffAfterFailures(t *testing.T) {
	m := NewMonitor(testPolicy())
	now := feed(m, 4, 10*time.Millisecond, leaking)
	m.NoteRejuvenation(now, false)
	st := m.Stats()
	if st.Failures != 1 || st.BackoffLevel != 1 {
		t.Fatalf("after first failure: %+v", st)
	}
	if got, want := st.BackoffUntil-now, backoffBase; got != want {
		t.Fatalf("first backoff = %v, want %v", got, want)
	}
	m.NoteRejuvenation(now, false)
	if got, want := m.Stats().BackoffUntil-now, 2*backoffBase; got != want {
		t.Fatalf("second backoff = %v, want %v", got, want)
	}
	// Keep failing: the penalty must cap at backoffMax.
	for i := 0; i < 10; i++ {
		m.NoteRejuvenation(now, false)
	}
	if got := m.Stats().BackoffUntil - now; got != backoffMax {
		t.Fatalf("capped backoff = %v, want %v", got, backoffMax)
	}
	if m.Due(now) {
		t.Fatal("fired while backoff in force")
	}
	// A success clears the failure streak.
	m.NoteRejuvenation(now, true)
	if st := m.Stats(); st.BackoffLevel != 0 || st.BackoffUntil != 0 {
		t.Fatalf("backoff not cleared by success: %+v", st)
	}
}

func TestSuccessResetsWindowAndBaseline(t *testing.T) {
	m := NewMonitor(testPolicy())
	now := feed(m, 8, 10*time.Millisecond, leaking)
	m.NoteRejuvenation(now, true)
	if sc := m.Score(); sc.Total != 0 || sc.Cause != "" {
		t.Fatalf("score not reset: %+v", sc)
	}
	// One fresh post-reboot sample must not inherit the old slope.
	m.Observe(Sample{At: now + 10*time.Millisecond, HeapAllocated: 100})
	if sc := m.Score(); sc.LeakSlope != 0 {
		t.Fatalf("slope computed across reboot: %+v", sc)
	}
}
