package sched

import (
	"errors"
	"strings"
	"testing"
	"time"

	"vampos/internal/clock"
	"vampos/internal/mem"
)

func newSched(policy Policy) *Scheduler {
	return New(clock.NewVirtual(), policy)
}

func TestRunSingleThreadToCompletion(t *testing.T) {
	s := newSched(nil)
	ran := false
	s.Spawn("worker", mem.AllowAll, func(*Thread) { ran = true })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("thread body did not run")
	}
}

func TestYieldInterleavesRoundRobin(t *testing.T) {
	s := newSched(NewRoundRobin())
	var order []string
	mk := func(name string) func(*Thread) {
		return func(th *Thread) {
			for i := 0; i < 3; i++ {
				order = append(order, name)
				th.Yield()
			}
		}
	}
	s.Spawn("a", mem.AllowAll, mk("a"))
	s.Spawn("b", mem.AllowAll, mk("b"))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestBlockAndWake(t *testing.T) {
	s := newSched(nil)
	var got string
	var consumer *Thread
	ready := false
	consumer = s.Spawn("consumer", mem.AllowAll, func(th *Thread) {
		for !ready {
			th.Block("wait for producer")
		}
		got = "consumed"
	})
	s.Spawn("producer", mem.AllowAll, func(*Thread) {
		ready = true
		consumer.Wake()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "consumed" {
		t.Fatal("consumer never resumed after Wake")
	}
}

func TestWakeReadyThreadIsNoOp(t *testing.T) {
	s := newSched(nil)
	count := 0
	var a *Thread
	a = s.Spawn("a", mem.AllowAll, func(th *Thread) {
		count++
		th.Yield()
		count++
	})
	s.Spawn("b", mem.AllowAll, func(*Thread) {
		a.Wake() // a is ready or running, must not corrupt the queue
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("a ran %d segments, want 2", count)
	}
}

func TestSleepAdvancesVirtualClock(t *testing.T) {
	s := newSched(nil)
	var woke time.Duration
	s.Spawn("sleeper", mem.AllowAll, func(th *Thread) {
		th.Sleep(5 * time.Second)
		woke = th.Clock().Elapsed()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 5*time.Second {
		t.Fatalf("woke at %v, want 5s", woke)
	}
}

func TestSleepersWakeInDeadlineOrder(t *testing.T) {
	s := newSched(nil)
	var order []string
	mk := func(name string, d time.Duration) {
		s.Spawn(name, mem.AllowAll, func(th *Thread) {
			th.Sleep(d)
			order = append(order, name)
		})
	}
	mk("late", 30*time.Millisecond)
	mk("early", 10*time.Millisecond)
	mk("mid", 20*time.Millisecond)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "early" || order[1] != "mid" || order[2] != "late" {
		t.Fatalf("wake order = %v", order)
	}
}

// TestSleepTimerIsReusedAcrossAnEarlyWake: a sleep cut short by Wake must
// leave nothing behind on the thread's one timer — the next sleep ends at
// its own deadline, once, and the clock never visits the cancelled one.
func TestSleepTimerIsReusedAcrossAnEarlyWake(t *testing.T) {
	s := newSched(nil)
	var woke []time.Duration
	sleeper := s.Spawn("sleeper", mem.AllowAll, func(th *Thread) {
		th.Sleep(time.Hour) // cancelled at 0 by the waker
		woke = append(woke, th.Clock().Elapsed())
		th.Sleep(5 * time.Millisecond)
		woke = append(woke, th.Clock().Elapsed())
		th.Block("until the run ends") // a stale firing would wake this
		woke = append(woke, th.Clock().Elapsed())
	})
	s.Spawn("waker", mem.AllowAll, func(th *Thread) {
		sleeper.Wake()
		th.Sleep(10 * time.Millisecond)
		th.Scheduler().Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 2 || woke[0] != 0 || woke[1] != 5*time.Millisecond {
		t.Fatalf("sleeper resumed at %v, want [0s 5ms]", woke)
	}
	if got := s.Clock().Elapsed(); got != 10*time.Millisecond {
		t.Fatalf("clock ended at %v, want 10ms: the cancelled deadline was visited", got)
	}
	if n := s.Clock().Advance(time.Hour); n != 0 {
		t.Fatalf("%d timers left pending", n)
	}
}

// TestSleepersToTheSameInstantWakeInArmingOrder: every arming of a reused
// timer takes a fresh creation id, so a tie is broken by who slept last
// this time, not by who slept first long ago.
func TestSleepersToTheSameInstantWakeInArmingOrder(t *testing.T) {
	s := newSched(nil)
	var order []string
	// First round: a arms before b. Second round: b arms before a, for the
	// same instant (b sleeps 2ms from 1ms, a sleeps 1ms from 2ms).
	s.Spawn("a", mem.AllowAll, func(th *Thread) {
		th.Sleep(2 * time.Millisecond)
		order = append(order, "a")
		th.Sleep(time.Millisecond)
		order = append(order, "a")
	})
	s.Spawn("b", mem.AllowAll, func(th *Thread) {
		th.Sleep(time.Millisecond)
		order = append(order, "b")
		th.Sleep(2 * time.Millisecond)
		order = append(order, "b")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ""); got != "baba" {
		t.Fatalf("wake order %q, want \"baba\"", got)
	}
}

// TestSleepWakeCycleAllocatesNothing: arming the thread's own timer with
// its own callback, advancing the clock to it and redispatching the thread.
func TestSleepWakeCycleAllocatesNothing(t *testing.T) {
	s := newSched(nil)
	allocs := -1.0
	s.Spawn("poller", mem.AllowAll, func(th *Thread) {
		allocs = testing.AllocsPerRun(200, func() { th.Sleep(20 * time.Microsecond) })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("%v allocations per Sleep, want 0", allocs)
	}
}

func TestDeadlockDetected(t *testing.T) {
	s := newSched(nil)
	s.Spawn("stuck", mem.AllowAll, func(th *Thread) {
		th.Block("never woken")
	})
	err := s.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run() = %v, want ErrDeadlock", err)
	}
}

func TestStopEndsRun(t *testing.T) {
	s := newSched(nil)
	s.Spawn("server", mem.AllowAll, func(th *Thread) {
		for {
			th.Yield()
		}
	})
	s.Spawn("client", mem.AllowAll, func(th *Thread) {
		th.Yield()
		th.Scheduler().Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run() = %v, want clean stop", err)
	}
}

func TestKillUnwindsParkedThread(t *testing.T) {
	s := newSched(nil)
	cleaned := false
	var victim *Thread
	victim = s.Spawn("victim", mem.AllowAll, func(th *Thread) {
		defer func() { cleaned = true }()
		for {
			th.Yield()
		}
	})
	s.Spawn("killer", mem.AllowAll, func(*Thread) {
		victim.Kill()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !cleaned {
		t.Fatal("victim's deferred cleanup did not run")
	}
	if victim.State() != StateDone {
		t.Fatalf("victim state = %v, want done", victim.State())
	}
}

func TestKillBlockedThread(t *testing.T) {
	s := newSched(nil)
	var victim *Thread
	victim = s.Spawn("victim", mem.AllowAll, func(th *Thread) {
		th.Block("forever")
	})
	s.Spawn("killer", mem.AllowAll, func(*Thread) { victim.Kill() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if victim.State() != StateDone {
		t.Fatalf("victim state = %v, want done", victim.State())
	}
}

func TestKillIsIdempotentAndRunsOnKill(t *testing.T) {
	s := newSched(nil)
	killNotified := 0
	var victim *Thread
	victim = s.Spawn("victim", mem.AllowAll, func(th *Thread) {
		for {
			th.Yield()
		}
	})
	victim.OnKill = func() { killNotified++ }
	s.Spawn("killer", mem.AllowAll, func(*Thread) {
		victim.Kill()
		victim.Kill()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if killNotified != 1 {
		t.Fatalf("OnKill ran %d times, want 1", killNotified)
	}
}

func TestPanicHandlerCapturesCrash(t *testing.T) {
	s := newSched(nil)
	th := s.Spawn("crasher", mem.AllowAll, func(*Thread) {
		panic("component fault")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if th.State() != StateDone {
		t.Fatalf("crashed thread is %v, want done", th.State())
	}
	if th.PanicValue() != "component fault" {
		t.Fatalf("PanicValue() = %v", th.PanicValue())
	}
}

func TestSpawnFromRunningThread(t *testing.T) {
	s := newSched(nil)
	childRan := false
	s.Spawn("parent", mem.AllowAll, func(th *Thread) {
		th.Scheduler().Spawn("child", mem.AllowAll, func(*Thread) { childRan = true })
		th.Yield()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child spawned at runtime never ran")
	}
}

func TestDependencyAwareHintJumpsQueue(t *testing.T) {
	s := newSched(NewDependencyAware())
	var order []string
	record := func(name string) func(*Thread) {
		return func(th *Thread) { order = append(order, name) }
	}
	s.Spawn("first", mem.AllowAll, func(th *Thread) {
		order = append(order, "first")
		target := th.Scheduler().Spawn("target", mem.AllowAll, record("target"))
		th.Scheduler().Spawn("noise1", mem.AllowAll, record("noise1"))
		th.Scheduler().Spawn("noise2", mem.AllowAll, record("noise2"))
		th.Scheduler().Hint(target)
		th.Yield()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if order[1] != "target" {
		t.Fatalf("dispatch order = %v, want target dispatched right after first", order)
	}
}

func TestDependencyAwareFallsBackToFIFO(t *testing.T) {
	s := newSched(NewDependencyAware())
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		s.Spawn(name, mem.AllowAll, func(*Thread) { order = append(order, name) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v, want FIFO", order)
	}
}

func TestRoundRobinCostGrowsWithPollers(t *testing.T) {
	// With N polling components, a round-robin hop costs ~N dispatches
	// while a dependency-aware hop is constant — the mechanism behind the
	// Fig. 5 Noop-vs-DaS gap. Verify the dispatch-count relationship.
	hop := func(policy Policy) uint64 {
		s := newSched(policy)
		var target *Thread
		got := false
		// Polling components that never do useful work.
		for i := 0; i < 8; i++ {
			s.Spawn("poller", mem.AllowAll, func(th *Thread) {
				for !th.Scheduler().Stopped() {
					th.Yield()
				}
			})
		}
		target = s.Spawn("target", mem.AllowAll, func(th *Thread) {
			for !got {
				th.Block("mailbox")
			}
			th.Scheduler().Stop()
		})
		s.Spawn("sender", mem.AllowAll, func(th *Thread) {
			got = true
			target.Wake()
			th.Scheduler().Hint(target)
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Stats().Dispatches
	}
	rr := hop(NewRoundRobin())
	das := hop(NewDependencyAware())
	if das >= rr {
		t.Fatalf("dependency-aware dispatches (%d) not below round-robin (%d)", das, rr)
	}
}

func TestSetPKRUPropagatesToAccessor(t *testing.T) {
	m := mem.New(4 * mem.PageSize)
	s := newSched(nil)
	if err := s.SetMemory(m); err != nil {
		t.Fatal(err)
	}
	if err := s.SetMemory(m); err == nil {
		t.Fatal("second SetMemory accepted")
	}
	base, err := m.AllocPages(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	var writeErr error
	s.Spawn("comp", mem.Allow(1), func(th *Thread) {
		writeErr = th.Accessor().Write(base, []byte{1})
		th.SetPKRU(mem.Allow(1, 2))
		if err := th.Accessor().Write(base, []byte{1}); err != nil {
			t.Errorf("write after grant failed: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var f *mem.Fault
	if !errors.As(writeErr, &f) {
		t.Fatalf("write before grant = %v, want fault", writeErr)
	}
}

func TestStatsCounters(t *testing.T) {
	s := newSched(nil)
	s.Spawn("a", mem.AllowAll, func(th *Thread) {
		th.Sleep(time.Millisecond)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Spawned != 1 {
		t.Fatalf("Spawned = %d, want 1", st.Spawned)
	}
	if st.Dispatches < 2 {
		t.Fatalf("Dispatches = %d, want >= 2 (initial + post-sleep)", st.Dispatches)
	}
	if st.ClockAdvances == 0 {
		t.Fatal("ClockAdvances = 0, sleep should force an advance")
	}
}

func TestYieldOutsideCurrentPanics(t *testing.T) {
	s := newSched(nil)
	th := s.Spawn("a", mem.AllowAll, func(th *Thread) {})
	defer func() {
		if recover() == nil {
			t.Fatal("Yield from non-running context did not panic")
		}
	}()
	th.Yield()
}
