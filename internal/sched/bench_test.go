package sched

import (
	"testing"
	"time"

	"vampos/internal/clock"
	"vampos/internal/mem"
)

// The benchmarks time the wall cost of one simulated context switch in
// each of the ways a thread gives up the baton. Every op is one park plus
// the dispatch that resumes the thread; virtual dispatch cost is off, so
// only this package's own work is measured.

func runBench(b *testing.B, s *Scheduler) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	s.Close()
}

// BenchmarkYieldPingPong: two threads alternate through the ready queue.
func BenchmarkYieldPingPong(b *testing.B) {
	s := newSched(nil)
	for _, name := range []string{"ping", "pong"} {
		s.Spawn(name, mem.AllowAll, func(th *Thread) {
			for i := 0; i < b.N/2+1; i++ {
				th.Yield()
			}
		})
	}
	runBench(b, s)
}

// BenchmarkBlockWake: a consumer blocks, a producer wakes it and yields —
// the shape of one message hop.
func BenchmarkBlockWake(b *testing.B) {
	s := newSched(nil)
	consumer := s.Spawn("consumer", mem.AllowAll, func(th *Thread) {
		for {
			th.BlockCall("producer", "item")
		}
	})
	s.Spawn("producer", mem.AllowAll, func(th *Thread) {
		for i := 0; i < b.N/2+1; i++ {
			consumer.Wake()
			th.Yield()
		}
		s.Stop()
	})
	runBench(b, s)
}

// BenchmarkSleepWake: one thread sleeps, so every op also registers a
// timer and advances the virtual clock to it — the shape of one poll.
func BenchmarkSleepWake(b *testing.B) {
	s := newSched(nil)
	s.Spawn("poller", mem.AllowAll, func(th *Thread) {
		for i := 0; i < b.N; i++ {
			th.Sleep(20 * time.Microsecond)
		}
	})
	runBench(b, s)
}

// BenchmarkSleepPollIdle: a poller on a 2 µs period waits for a flag that
// a timer sets 100 periods later — the shape of one 9P RPC. One op is one
// waited period; all but the last of each hundred are leapt.
func BenchmarkSleepPollIdle(b *testing.B) {
	const period, wait = 2 * time.Microsecond, 100
	s := newSched(nil)
	var (
		flag  bool
		timer clock.Timer
	)
	set := func() { flag = true }
	s.Spawn("poller", mem.AllowAll, func(th *Thread) {
		for i := 0; i < b.N; i += wait {
			flag = false
			s.Clock().Arm(&timer, wait*period, set)
			until := th.Elapsed() + time.Second
			for !flag {
				th.SleepPoll(period, until)
			}
		}
	})
	runBench(b, s)
}

// benchRound runs b.N scheduling rounds of width domain threads, each on
// a shard of its own, each slice doing work (nil: none) before it yields.
// Width one is the singleton batch the round engine dispatches live; wider
// batches run as journaled slices, claimed bucket by bucket by the
// conductor and the runners, and commit in merge order.
func benchRound(b *testing.B, width int, work func()) {
	s := newSched(nil)
	s.SetShards(width)
	for i := 0; i < width; i++ {
		th := s.Spawn("domain", mem.AllowAll, func(th *Thread) {
			for i := 0; i < b.N; i++ {
				if work != nil {
					work()
				}
				th.Charge(time.Microsecond)
				th.Yield()
			}
		})
		th.SetClass(ClassDomain)
		th.SetShard(i)
	}
	runBench(b, s)
	if st := s.Stats(); width > 1 && st.RoundWall > 0 {
		b.ReportMetric(float64(st.RoundCritical)/float64(st.RoundWall), "critical/wall")
	}
}

// spin returns a slice body that computes for about d of wall time on the
// machine that calibrated it: a hash loop that allocates nothing, makes no
// system call and shares nothing, so slices may run it side by side.
func spin(d time.Duration) func() {
	const probe = 1 << 16
	start := time.Now()
	burn(probe)
	n := int(float64(probe) * float64(d) / float64(time.Since(start)))
	return func() { burn(n) }
}

// burn uses fnvLoop's result, so the loop cannot be compiled away.
func burn(n int) {
	if fnvLoop(n) == 0 {
		panic("unreachable")
	}
}

func fnvLoop(n int) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < n; i++ {
		h = (h ^ uint64(i)) * 1099511628211
	}
	return h
}

func BenchmarkRoundWidth1(b *testing.B) { benchRound(b, 1, nil) }
func BenchmarkRoundWidth4(b *testing.B) { benchRound(b, 4, nil) }

// BenchmarkRoundTiny2: two ≈ 1 µs slices on two shards — the price of a
// round that was not worth running in parallel.
func BenchmarkRoundTiny2(b *testing.B) { benchRound(b, 2, spin(time.Microsecond)) }

// BenchmarkRoundWide2: two ≈ 100 µs compute slices on two shards; ns/op is
// the wall of one round against its 100 µs critical path.
func BenchmarkRoundWide2(b *testing.B) { benchRound(b, 2, spin(100*time.Microsecond)) }
