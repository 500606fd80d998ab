package core

import (
	"runtime"
	"strconv"
	"testing"
	"time"
)

// TestHangInMergedGroupRebootsWholeGroup injects FaultHang into a member
// of a merged composite: the watchdog must declare the whole group hung,
// reboot both members together, and the retried call must succeed with
// every member's pre-hang state intact.
func TestHangInMergedGroupRebootsWholeGroup(t *testing.T) {
	backend := &kvComp{name: "backend"}
	front := &kvComp{name: "front", backend: "backend"}
	cfg := DaSConfig()
	cfg.Merges = [][]string{{"front", "backend"}}
	cfg.HangThreshold = 500 * time.Millisecond
	cfg.WatchdogPeriod = 50 * time.Millisecond
	cfg.MaxVirtualTime = time.Hour
	rt := NewRuntime(cfg)
	for _, c := range []Component{backend, front} {
		if err := rt.Register(c); err != nil {
			t.Fatal(err)
		}
	}
	err := rt.Run(func(c *Ctx) {
		mustCall(t, c, "front", "put", 1, "1")
		mustCall(t, c, "backend", "put", 2, "2")
		if err := rt.ArmFault("backend", "put", FaultHang); err != nil {
			t.Errorf("ArmFault: %v", err)
			return
		}
		// The armed hang parks the composite's worker; the watchdog
		// reboots the whole group and the retry succeeds.
		mustCall(t, c, "backend", "put", 8, "3")
		rets := mustCall(t, c, "backend", "get", 8)
		if v, _ := rets.Str(0); v != "3" {
			t.Errorf("stuck = %q after retry, want 3", v)
		}
		// Both members' pre-hang state survived the composite reboot.
		rets = mustCall(t, c, "front", "get", 1)
		if v, _ := rets.Str(0); v != "1!" {
			t.Errorf("front a = %q, want 1!", v)
		}
		rets = mustCall(t, c, "backend", "get", 2)
		if v, _ := rets.Str(0); v != "2" {
			t.Errorf("backend b = %q, want 2", v)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if hangs := rt.Stats().Hangs; hangs != 1 {
		t.Fatalf("Hangs = %d, want 1", hangs)
	}
	recs := rt.Reboots()
	if len(recs) != 1 || recs[0].Reason != "hang" {
		t.Fatalf("reboots = %+v, want one hang reboot", recs)
	}
	if len(recs[0].Components) != 2 {
		t.Fatalf("hang reboot covered %v, want both merged members", recs[0].Components)
	}
	for _, name := range []string{"front", "backend"} {
		cs, ok := rt.ComponentStats(name)
		if !ok || cs.Reboots != 1 {
			t.Errorf("%s stats = %+v, want Reboots=1", name, cs)
		}
	}
}

// TestStatsConsistentAcrossCrashRebootCycles drives repeated crash and
// proactive-reboot cycles and checks that RuntimeStats, ComponentStats
// and the RebootRecords tell one consistent story afterwards.
func TestStatsConsistentAcrossCrashRebootCycles(t *testing.T) {
	const cycles = 5
	kv := &kvComp{name: "kv"}
	rt := run(t, DaSConfig(), []Component{kv}, func(c *Ctx) {
		for i := 0; i < cycles; i++ {
			bomb := i + 1
			kv.panicOn = bomb
			// Crash + failure reboot + transparent retry.
			mustCall(t, c, "kv", "put", bomb, "v"+strconv.Itoa(i))
			// One proactive reboot per cycle on top.
			if err := c.Reboot("kv"); err != nil {
				t.Errorf("cycle %d Reboot: %v", i, err)
				return
			}
		}
		// All writes survived every cycle.
		for i := 0; i < cycles; i++ {
			rets := mustCall(t, c, "kv", "get", i+1)
			if v, _ := rets.Str(0); v != "v"+strconv.Itoa(i) {
				t.Errorf("bomb%d = %q", i, v)
			}
		}
	})
	stats := rt.Stats()
	if stats.Failures != cycles {
		t.Errorf("Failures = %d, want %d", stats.Failures, cycles)
	}
	if stats.Hangs != 0 || stats.FailedRestores != 0 {
		t.Errorf("unexpected hangs/failed restores: %+v", stats)
	}
	recs := rt.Reboots()
	if len(recs) != 2*cycles {
		t.Fatalf("reboot records = %d, want %d (failure + proactive per cycle)", len(recs), 2*cycles)
	}
	var failureReboots, proactiveReboots uint64
	for i, r := range recs {
		switch {
		case r.Reason == "proactive":
			proactiveReboots++
		case len(r.Reason) >= 7 && r.Reason[:7] == "failure":
			failureReboots++
		default:
			t.Errorf("record %d has unexpected reason %q", i, r.Reason)
		}
		if r.Group != "kv" || len(r.Components) != 1 || r.Components[0] != "kv" {
			t.Errorf("record %d names %s/%v, want kv", i, r.Group, r.Components)
		}
		if r.VirtualDuration <= 0 {
			t.Errorf("record %d has non-positive virtual duration %v", i, r.VirtualDuration)
		}
	}
	if failureReboots != cycles || proactiveReboots != cycles {
		t.Errorf("reboot reasons: %d failure, %d proactive, want %d each", failureReboots, proactiveReboots, cycles)
	}
	cs, ok := rt.ComponentStats("kv")
	if !ok {
		t.Fatal("no component stats for kv")
	}
	if cs.Failures != stats.Failures {
		t.Errorf("ComponentStats.Failures = %d, RuntimeStats.Failures = %d", cs.Failures, stats.Failures)
	}
	if cs.Reboots != uint64(len(recs)) {
		t.Errorf("ComponentStats.Reboots = %d, reboot records = %d", cs.Reboots, len(recs))
	}
}

// TestStatsSnapshotsRaceFreeUnderLoad hammers the snapshot accessors
// from a separate goroutine while the simulation crashes and reboots a
// component. Run with -race this proves Stats and Reboots are
// safe to call from outside the simulation.
func TestStatsSnapshotsRaceFreeUnderLoad(t *testing.T) {
	kv := &kvComp{name: "kv"}
	cfg := DaSConfig()
	cfg.MaxVirtualTime = time.Hour
	rt := NewRuntime(cfg)
	if err := rt.Register(kv); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	first := make(chan struct{}) // closed after the observer's first full iteration
	snapped := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-done:
				snapped <- n
				return
			default:
			}
			_ = rt.Stats()
			_ = rt.Reboots()
			n++
			if n == 1 {
				close(first)
			}
			runtime.Gosched()
		}
	}()
	// The whole simulation can finish before a fresh goroutine is first
	// scheduled; start it only once the observer is known to be running.
	<-first
	err := rt.Run(func(c *Ctx) {
		for i := 0; i < 20; i++ {
			bomb := i + 1
			kv.panicOn = bomb
			mustCall(t, c, "kv", "put", bomb, "v")
		}
	})
	close(done)
	if err != nil {
		t.Fatal(err)
	}
	if n := <-snapped; n == 0 {
		t.Fatal("snapshot goroutine never ran")
	}
	if got := rt.Stats().Failures; got != 20 {
		t.Fatalf("Failures = %d, want 20", got)
	}
	if got := len(rt.Reboots()); got != 20 {
		t.Fatalf("reboot records = %d, want 20", got)
	}
}
