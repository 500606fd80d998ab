package sched

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"vampos/internal/mem"
)

// Switch semantics of the coroutine baton: what a kill, a panic, a Goexit
// and a park mean at each point of a thread's life.

func TestKillBeforeFirstDispatch(t *testing.T) {
	s := newSched(nil)
	var victim *Thread
	ran, notified := false, 0
	s.Spawn("killer", mem.AllowAll, func(*Thread) { victim.Kill() })
	victim = s.Spawn("victim", mem.AllowAll, func(*Thread) { ran = true })
	victim.OnKill = func() { notified++ }
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("a thread killed before its first dispatch ran its body")
	}
	if victim.State() != StateDone || notified != 1 {
		t.Fatalf("state = %v, OnKill ran %d times; want done, 1", victim.State(), notified)
	}
}

func TestKillSleepingThread(t *testing.T) {
	s := newSched(nil)
	cleaned, resumed := false, false
	victim := s.Spawn("victim", mem.AllowAll, func(th *Thread) {
		defer func() { cleaned = true }()
		th.Sleep(time.Hour)
		resumed = true
	})
	s.Spawn("killer", mem.AllowAll, func(*Thread) { victim.Kill() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !cleaned || resumed || victim.State() != StateDone {
		t.Fatalf("cleaned=%v resumed=%v state=%v", cleaned, resumed, victim.State())
	}
	if got := s.Clock().Elapsed(); got != 0 {
		t.Fatalf("clock at %v: the killed sleeper's timer still fired", got)
	}
}

func TestPanicAfterParkReachesHandler(t *testing.T) {
	s := newSched(nil)
	boom := errors.New("component fault")
	th := s.Spawn("crasher", mem.AllowAll, func(th *Thread) {
		th.Yield()
		th.Sleep(time.Millisecond)
		panic(boom)
	})
	s.Spawn("bystander", mem.AllowAll, func(th *Thread) { th.Yield() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if th.State() != StateDone || th.PanicValue() != boom {
		t.Fatalf("crasher is %v with PanicValue %v; want done with %v", th.State(), th.PanicValue(), boom)
	}
}

// A runtime.Goexit inside a simulated thread (t.Fatal from test code on a
// simulated thread) ends the goroutine that is inside Run, so a failing
// test stops at once and cannot leave the conductor waiting.
func TestGoexitInThreadEndsRunGoroutine(t *testing.T) {
	s := newSched(nil)
	cleaned := false
	th := s.Spawn("fatal", mem.AllowAll, func(th *Thread) {
		defer func() { cleaned = true }()
		th.Yield()
		runtime.Goexit()
	})
	s.Spawn("spinner", mem.AllowAll, func(th *Thread) {
		for {
			th.Yield()
		}
	})
	returned := make(chan bool)
	go func() {
		ok := false
		defer func() { returned <- ok }()
		_ = s.Run()
		ok = true
	}()
	if <-returned {
		t.Fatal("Run returned normally after a Goexit in a simulated thread")
	}
	if !cleaned || th.State() != StateDone {
		t.Fatalf("cleaned=%v state=%v", cleaned, th.State())
	}
	s.Close()
}

func TestParkInsideDeferDuringKillUnwind(t *testing.T) {
	s := newSched(nil)
	enteredDefer, pastPark, notified := false, false, 0
	victim := s.Spawn("victim", mem.AllowAll, func(th *Thread) {
		defer func() {
			enteredDefer = true
			th.Yield() // parks mid-unwind; the kill is honoured again on resume
			pastPark = true
		}()
		th.Block("forever")
	})
	victim.OnKill = func() { notified++ }
	s.Spawn("killer", mem.AllowAll, func(*Thread) { victim.Kill() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !enteredDefer || pastPark {
		t.Fatalf("enteredDefer=%v pastPark=%v", enteredDefer, pastPark)
	}
	if victim.State() != StateDone || victim.PanicValue() != nil || notified != 1 {
		t.Fatalf("state=%v panic=%v OnKill=%d", victim.State(), victim.PanicValue(), notified)
	}
}

func TestDeadlockDumpFormatsParkReasons(t *testing.T) {
	s := newSched(nil)
	s.Spawn("plain", mem.AllowAll, func(th *Thread) { th.Block("mailbox empty") })
	s.Spawn("caller", mem.AllowAll, func(th *Thread) { th.BlockCall("vfs", "write") })
	err := s.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run() = %v, want ErrDeadlock", err)
	}
	for _, want := range []string{`"plain": blocked (mailbox empty)`, `"caller": blocked (call vfs.write)`} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("dump lacks %q:\n%v", want, err)
		}
	}
	if got := (parkReason{sleep: 1500 * time.Microsecond}).String(); got != "sleep 1.5ms" {
		t.Fatalf("sleep reason = %q", got)
	}
	s.Close()
}

// settledGoroutines reads the goroutine count once helpers of earlier
// tests have had a moment to exit.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func TestCloseUnwindsEveryParkedThread(t *testing.T) {
	base := runtime.NumGoroutine()
	s := newSched(nil)
	cleaned, handlers := 0, 0
	spawn := func(name string, body func(*Thread)) {
		th := s.Spawn(name, mem.AllowAll, func(th *Thread) {
			defer func() { cleaned++ }()
			body(th)
		})
		th.OnKill = func() { handlers++ }
	}
	spawn("blocked", func(th *Thread) { th.Block("forever") })
	spawn("sleeping", func(th *Thread) { th.Sleep(time.Hour) })
	spawn("ready", func(th *Thread) {
		for {
			th.Yield()
		}
	})
	spawn("parks-in-defer", func(th *Thread) {
		defer th.Yield()
		th.Block("forever")
	})
	spawn("stopper", func(th *Thread) {
		th.Yield()
		s.Spawn("never-dispatched", mem.AllowAll, func(*Thread) { t.Error("ran a thread spawned at Stop") })
		s.Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n <= base {
		t.Fatalf("%d goroutines after Run, baseline %d: parked threads should still be held", n, base)
	}
	dispatches, clock := s.Stats().Dispatches, s.Clock().Elapsed()
	s.Close()
	s.Close() // idempotent
	for _, th := range s.Threads() {
		if th.State() != StateDone {
			t.Errorf("thread %q left %v", th.Name(), th.State())
		}
	}
	if cleaned != 5 || handlers != 0 {
		t.Fatalf("deferred cleanups = %d (want 5), kill handlers run = %d (want 0)", cleaned, handlers)
	}
	if s.Stats().Dispatches != dispatches || s.Clock().Elapsed() != clock {
		t.Fatal("Close dispatched a thread or moved the virtual clock")
	}
	if n := settledGoroutines(base); n > base {
		t.Fatalf("%d goroutines after Close, baseline %d", n, base)
	}
}

func TestFinishedThreadsLeaveNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	s := newSched(nil)
	const n = 10000
	finished := 0
	s.Spawn("spawner", mem.AllowAll, func(th *Thread) {
		for i := 0; i < n; i++ {
			s.Spawn("short", mem.AllowAll, func(th *Thread) {
				th.Yield()
				finished++
			})
			if i%64 == 0 {
				th.Yield()
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if finished != n {
		t.Fatalf("%d of %d threads finished", finished, n)
	}
	if got := settledGoroutines(base); got > base {
		t.Fatalf("%d goroutines after %d threads finished, baseline %d", got, n, base)
	}
}
