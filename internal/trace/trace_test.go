package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// fakeClock is a manually advanced virtual clock for tests.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration      { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t += d }

func TestNilRecorderIsFree(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	sp := r.Begin(0, KindSyscall, "app", "", "open")
	if sp != 0 {
		t.Fatalf("nil Begin = %d, want 0", sp)
	}
	r.End(sp)
	r.EndErr(sp, "x")
	r.Annotate(sp, "y")
	r.Instant(0, KindFault, "vfs", "f", "")
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil Snapshot = %v, want nil", got)
	}
	if r.Dropped() != 0 || r.Name() != "" || r.CapturesDispatches() {
		t.Fatal("nil accessors not zero")
	}
}

func TestSpanNestingAndDurations(t *testing.T) {
	clk := &fakeClock{}
	r := New("t", clk.now)
	root := r.Begin(0, KindSyscall, "app", "", "open")
	clk.advance(time.Microsecond)
	child := r.Begin(root, KindCall, "app", "vfs", "open")
	clk.advance(2 * time.Microsecond)
	r.End(child)
	clk.advance(time.Microsecond)
	r.EndErr(root, "ENOENT")
	evs := r.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].ID != root || evs[0].VirtDuration() != 4*time.Microsecond {
		t.Fatalf("root event = %+v", evs[0])
	}
	if evs[0].Detail != "ENOENT" {
		t.Fatalf("root detail = %q", evs[0].Detail)
	}
	if evs[1].Parent != root || evs[1].VirtDuration() != 2*time.Microsecond {
		t.Fatalf("child event = %+v", evs[1])
	}
	if err := Validate(evs); err != nil {
		t.Fatal(err)
	}
}

func TestRingEvictionKeepsStickyAndOpenSpans(t *testing.T) {
	clk := &fakeClock{}
	r := New("t", clk.now, WithCapacity(64))
	open := r.Begin(0, KindSyscall, "app", "", "longpoll")
	r.Instant(0, KindFault, "9pfs", "uk_9pfs_write", "crash")
	reboot := r.Begin(0, KindReboot, "9pfs", "", "failure")
	r.End(reboot)
	for i := 0; i < 500; i++ {
		clk.advance(time.Microsecond)
		sp := r.Begin(0, KindSyscall, "app", "", "getpid")
		r.End(sp)
	}
	if r.Dropped() == 0 {
		t.Fatal("expected evictions")
	}
	evs := r.Snapshot()
	var haveOpen, haveFault, haveReboot bool
	for _, e := range evs {
		switch {
		case e.ID == open:
			haveOpen = true
			if !e.Open {
				t.Fatal("open span not marked open")
			}
		case e.Kind == KindFault:
			haveFault = true
		case e.Kind == KindReboot:
			haveReboot = true
		}
	}
	if !haveOpen || !haveFault || !haveReboot {
		t.Fatalf("critical events evicted: open=%v fault=%v reboot=%v", haveOpen, haveFault, haveReboot)
	}
	// The promoted open span must still be closable.
	clk.advance(time.Microsecond)
	r.End(open)
	for _, e := range r.Snapshot() {
		if e.ID == open && e.Open {
			t.Fatal("promoted span did not close")
		}
	}
}

func TestSnapshotSorted(t *testing.T) {
	clk := &fakeClock{}
	r := New("t", clk.now, WithCapacity(64))
	for i := 0; i < 200; i++ {
		clk.advance(time.Microsecond)
		sp := r.Begin(0, KindSyscall, "app", "", "x")
		r.End(sp)
	}
	evs := r.Snapshot()
	for i := 1; i < len(evs); i++ {
		if evs[i].VirtStart < evs[i-1].VirtStart {
			t.Fatalf("snapshot unsorted at %d", i)
		}
	}
}

// buildRecoveryTrace records a syscall -> call -> exec -> fault ->
// crash -> detect -> reboot(phases) -> retry chain.
func buildRecoveryTrace(clk *fakeClock, r *Recorder) {
	sys := r.Begin(0, KindSyscall, "app", "", "write")
	clk.advance(time.Microsecond)
	call := r.Begin(sys, KindCall, "app", "9pfs", "uk_9pfs_write")
	clk.advance(time.Microsecond)
	exec := r.Begin(call, KindExec, "9pfs", "", "uk_9pfs_write")
	clk.advance(time.Microsecond)
	r.Instant(exec, KindFault, "9pfs", "uk_9pfs_write", "crash")
	r.Instant(exec, KindCrash, "9pfs", "uk_9pfs_write", "injected crash")
	clk.advance(time.Microsecond)
	r.Instant(call, KindDetect, "9pfs", "failure: injected crash", "")
	reboot := r.Begin(call, KindReboot, "9pfs", "", "failure: injected crash")
	for _, ph := range PhaseNames() {
		p := r.Begin(reboot, KindPhase, "9pfs", "", ph)
		clk.advance(5 * time.Microsecond)
		r.End(p)
	}
	r.EndErr(reboot, "ok")
	clk.advance(time.Microsecond)
	retry := r.Begin(sys, KindCall, "app", "9pfs", "uk_9pfs_write")
	exec2 := r.Begin(retry, KindExec, "9pfs", "", "uk_9pfs_write")
	clk.advance(time.Microsecond)
	r.End(exec2)
	r.End(retry)
	r.End(sys)
}

func TestRebootTimelinesAndRecoveries(t *testing.T) {
	clk := &fakeClock{}
	r := New("t", clk.now)
	buildRecoveryTrace(clk, r)
	evs := r.Snapshot()
	tls := RebootTimelines(evs, KindReboot)
	if len(tls) != 1 {
		t.Fatalf("timelines = %d, want 1", len(tls))
	}
	tl := tls[0]
	if tl.Component != "9pfs" || tl.Failed {
		t.Fatalf("timeline = %+v", tl)
	}
	var phaseSum time.Duration
	for _, ph := range PhaseNames() {
		d, ok := tl.Phases[ph]
		if !ok {
			t.Fatalf("missing phase %q", ph)
		}
		if d != 5*time.Microsecond {
			t.Fatalf("phase %s = %v, want 5µs", ph, d)
		}
		phaseSum += d
	}
	if tl.Virtual() != phaseSum {
		t.Fatalf("reboot total %v != phase sum %v", tl.Virtual(), phaseSum)
	}
	recs := Recoveries(evs)
	if len(recs) != 1 {
		t.Fatalf("recoveries = %d, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Reboot == nil || rec.Crash == 0 || rec.Detected == 0 {
		t.Fatalf("recovery chain incomplete: %+v", rec)
	}
	if !(rec.Fault <= rec.Crash && rec.Crash <= rec.Detected && rec.Detected <= rec.Reboot.Start) {
		t.Fatalf("recovery out of order: %+v", rec)
	}
}

// TestChromeExportValid asserts the exporter emits valid Chrome
// trace-event JSON: parseable, timestamp-sorted, complete X events
// carrying durations, instants marked "i".
func TestChromeExportValid(t *testing.T) {
	clk := &fakeClock{}
	r := New("demo", clk.now)
	buildRecoveryTrace(clk, r)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, r); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("no events exported")
	}
	lastTS := -1.0
	kinds := map[string]int{}
	for _, e := range f.TraceEvents {
		ph, _ := e["ph"].(string)
		switch ph {
		case "M":
			continue
		case "X":
			if _, ok := e["dur"].(float64); !ok {
				t.Fatalf("X event without dur: %v", e)
			}
		case "i":
			// instants carry no dur
		default:
			t.Fatalf("unexpected phase %q (want only M, X, i)", ph)
		}
		ts, ok := e["ts"].(float64)
		if !ok {
			t.Fatalf("event without ts: %v", e)
		}
		if ts < lastTS {
			t.Fatalf("events not sorted: %v after %v", ts, lastTS)
		}
		lastTS = ts
		if cat, _ := e["cat"].(string); cat != "" {
			kinds[cat]++
		}
	}
	for _, want := range []string{"syscall", "call", "exec", "fault", "crash", "detect", "reboot", "phase"} {
		if kinds[want] == 0 {
			t.Fatalf("no %q events in export (kinds: %v)", want, kinds)
		}
	}
}
