package sched

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"vampos/internal/mem"
)

// The round engine's runners are an execution detail: they must be gone
// when Run returns, whichever way it returns, and which goroutine ran a
// bucket must not show in anything the simulation produces.

func spawnDomain(s *Scheduler, name string, ordinal int, fn func(*Thread)) *Thread {
	th := s.Spawn(name, mem.AllowAll, fn)
	th.SetClass(ClassDomain)
	th.SetShard(ordinal)
	return th
}

// pinProcs sets GOMAXPROCS for the rest of the test.
func pinProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestShardRunnersJoinOnEveryExit(t *testing.T) {
	const rounds = 50
	// looper runs n two-bucket rounds' worth of slices (forever when n < 0).
	looper := func(n int, then func(*Thread)) func(*Thread) {
		return func(th *Thread) {
			for i := 0; i != n; i++ {
				th.Charge(time.Microsecond)
				th.Yield()
			}
			if then != nil {
				then(th)
			}
		}
	}
	handled := 0
	var crashed *Thread
	exits := []struct {
		name  string
		build func(s *Scheduler)
		want  error
	}{
		{"stop", func(s *Scheduler) {
			spawnDomain(s, "a", 0, looper(-1, nil))
			spawnDomain(s, "b", 1, looper(-1, nil))
			s.Spawn("stopper", mem.AllowAll, func(th *Thread) {
				for i := 0; i < rounds; i++ {
					th.Yield()
				}
				s.Stop()
			})
		}, nil},
		{"completion", func(s *Scheduler) {
			spawnDomain(s, "a", 0, looper(rounds, nil))
			spawnDomain(s, "b", 1, looper(rounds, nil))
		}, nil},
		{"deadlock", func(s *Scheduler) {
			spawnDomain(s, "a", 0, looper(rounds, func(th *Thread) { th.Block("forever") }))
			spawnDomain(s, "b", 1, looper(rounds, func(th *Thread) { th.Block("forever") }))
		}, ErrDeadlock},
		{"panic", func(s *Scheduler) {
			spawnDomain(s, "a", 0, looper(rounds, nil))
			spawnDomain(s, "b", 1, looper(rounds, nil))
			crashed = spawnDomain(s, "c", 2, looper(rounds/2, func(*Thread) { panic("mid-round") }))
		}, nil},
		{"kill", func(s *Scheduler) {
			victim := spawnDomain(s, "victim", 1, looper(-1, nil))
			victim.OnKill = func() { handled++ }
			spawnDomain(s, "a", 0, looper(rounds/2, func(th *Thread) {
				th.Do(victim.Kill) // journaled: Kill touches the ready queue
				looper(rounds/2, nil)(th)
			}))
			spawnDomain(s, "b", 3, looper(rounds, nil))
		}, nil},
	}
	for _, exit := range exits {
		t.Run(exit.name, func(t *testing.T) {
			handled = 0
			s := newSched(nil)
			s.SetShards(2)
			exit.build(s)
			base := runtime.NumGoroutine() // the threads' coroutines included
			if err := s.Run(); !errors.Is(err, exit.want) {
				t.Fatalf("Run() = %v, want %v", err, exit.want)
			}
			if got := settledGoroutines(base); got > base {
				t.Fatalf("%d goroutines after Run, %d before: a runner outlived it", got, base)
			}
			if s.runners != nil {
				t.Fatalf("%d runners left after Run", len(s.runners))
			}
			if st := s.Stats(); st.Rounds < rounds {
				t.Fatalf("%d rounds, want at least %d", st.Rounds, rounds)
			}
			if want := uint64(min(2, runtime.GOMAXPROCS(0)) - 1); s.Stats().RunnerStarts != want {
				t.Fatalf("%d runners started, want %d", s.Stats().RunnerStarts, want)
			}
			if exit.name == "kill" && handled != 1 {
				t.Fatalf("kill handler ran %d times", handled)
			}
			if exit.name == "panic" && (crashed.State() != StateDone || crashed.PanicValue() != "mid-round") {
				t.Fatalf("crashed thread is %v with PanicValue %v", crashed.State(), crashed.PanicValue())
			}
			s.Close()
		})
	}
}

// TestShardRunnerGoexitInSlice: a runtime.Goexit inside a slice (t.Fatal on
// a simulated thread) ends whichever goroutine ran the bucket. On the
// conductor that is the Run goroutine, whose deferred join still collects
// the runners; on a runner the conductor must not wait for the lost bucket,
// and Run goes on without that runner.
func TestShardRunnerGoexitInSlice(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	onRunner, onConductor := 0, 0
	for attempt := 0; attempt < 50 && onRunner == 0 && (procs > 1 || attempt < 3); attempt++ {
		s := newSched(nil)
		s.SetShards(2)
		// The conductor claims bucket 0 first; in the round of the Goexit its
		// slice there waits (a second at most) until the other bucket's slice
		// has begun, which only a runner can have made happen.
		var exiting atomic.Bool
		spawnDomain(s, "busy", 0, func(th *Thread) {
			for i := 0; i < 40; i++ {
				for wait := time.Now(); i == 20 && procs > 1 && !exiting.Load() && time.Since(wait) < time.Second; {
					runtime.Gosched()
				}
				th.Yield()
			}
		})
		fatal := spawnDomain(s, "fatal", 1, func(th *Thread) {
			for i := 0; i < 20; i++ {
				th.Charge(time.Microsecond) // commits after busy: second in the next round too
				th.Yield()
			}
			exiting.Store(true)
			runtime.Goexit()
		})
		base := runtime.NumGoroutine()
		returned := make(chan bool)
		go func() {
			ok := false
			defer func() { returned <- ok }()
			if err := s.Run(); err != nil {
				t.Error(err)
			}
			ok = true
		}()
		if <-returned {
			onRunner++
			// Run went on: busy finished alone, dispatched live from then on.
			if st := s.Stats(); st.Rounds != 21 || !s.allDone() {
				t.Fatalf("%d rounds (want 21), all threads done: %v", st.Rounds, s.allDone())
			}
		} else {
			onConductor++
		}
		if fatal.State() != StateDone {
			t.Fatalf("thread left %v by its Goexit", fatal.State())
		}
		s.Close()
		if got := settledGoroutines(base - 1); got >= base { // the fatal thread's coroutine is gone too
			t.Fatalf("%d goroutines after the Goexit, %d before", got, base)
		}
	}
	t.Logf("Goexit unwound a runner %d times, the conductor %d times", onRunner, onConductor)
	if procs > 1 && onRunner == 0 {
		t.Fatal("no attempt had a runner claim the exiting thread's bucket")
	}
}

func TestShardRunnersStartOnlyForMultiBucketRounds(t *testing.T) {
	for _, tc := range []struct {
		name          string
		procs, shards int
		ordinals      [2]int
	}{
		{"one processor", 1, 2, [2]int{0, 1}},
		{"one bucket", 2, 2, [2]int{0, 2}},
		{"one shard", 2, 1, [2]int{0, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pinProcs(t, tc.procs)
			s := newSched(nil)
			s.SetShards(tc.shards)
			for _, ord := range tc.ordinals {
				spawnDomain(s, "d", ord, func(th *Thread) {
					for i := 0; i < 20; i++ {
						th.Yield()
					}
				})
			}
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if st := s.Stats(); st.Rounds != 21 || st.Slices != 42 {
				t.Fatalf("rounds=%d slices=%d, want 21 and 42", st.Rounds, st.Slices)
			}
			if n := s.Stats().RunnerStarts; n != 0 {
				t.Fatalf("%d runners started", n)
			}
		})
	}
}

func TestShardRunnersAcrossManyRuns(t *testing.T) {
	s := newSched(nil)
	s.SetShards(2)
	var threads []*Thread
	for i := 0; i < 2; i++ {
		threads = append(threads, spawnDomain(s, "d", i, func(th *Thread) {
			for {
				th.Charge(time.Microsecond)
				th.Yield()
				th.Block("until the next Run")
			}
		}))
	}
	base := runtime.NumGoroutine()
	const runs = 1000
	for i := 0; i < runs; i++ {
		for _, th := range threads {
			th.Wake()
		}
		if err := s.Run(); !errors.Is(err, ErrDeadlock) {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if st := s.Stats(); st.Rounds != 2*runs {
		t.Fatalf("%d rounds in %d runs, want two each", st.Rounds, runs)
	}
	if got := settledGoroutines(base); got > base {
		t.Fatalf("%d goroutines after %d runs, %d before", got, runs, base)
	}
	s.Close()
}

// sliceEv is one committed slice: who ran, for which time, and where the
// commit found the clock.
type sliceEv struct {
	who, iter int
	at        time.Duration
}

// stressRun alternates two-slice trivial rounds (a, b) with four-slice
// rounds that compute (a, b, c, d): a wakes c and d for every other round.
// Every slice journals one event; a slice that ran twice, or against a
// round that was already over, would lose or repeat one.
func stressRun(t *testing.T, shards, rounds int, work func()) ([]sliceEv, Stats) {
	s := newSched(nil)
	s.SetShards(shards)
	var (
		log      []sliceEv
		ran      [4]int // slices executed, counted by the thread itself
		commits  [4]int // slices committed, counted by the conductor
		finished bool
		threads  [4]*Thread
	)
	slice := func(th *Thread, k int) {
		n := ran[k]
		ran[k]++
		th.Charge(time.Duration(1+k/2) * time.Microsecond) // a ties with b, c with d
		th.Do(func() {
			if commits[k] != n {
				panic(fmt.Sprintf("thread %d commits slice %d after %d", k, n, commits[k]))
			}
			commits[k]++
			log = append(log, sliceEv{k, n, s.clk.Elapsed()})
		})
	}
	for k := 0; k < 2; k++ {
		threads[k] = spawnDomain(s, fmt.Sprintf("even%d", k), k, func(th *Thread) {
			for i := 0; i < rounds; i++ {
				if i%2 == 1 {
					work()
				}
				slice(th, k)
				if k == 0 && i%2 == 0 {
					th.Do(func() {
						finished = i+2 >= rounds
						threads[2].Wake()
						threads[3].Wake()
					})
				}
				th.Yield()
			}
		})
	}
	for k := 2; k < 4; k++ {
		threads[k] = spawnDomain(s, fmt.Sprintf("odd%d", k), k, func(th *Thread) {
			for !finished {
				th.Block("until the next wide round")
				work()
				slice(th, k)
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	if ran != commits {
		t.Fatalf("shards=%d: slices run %v, committed %v", shards, ran, commits)
	}
	if got := s.Stats().Slices; int(got) != ran[0]+ran[1]+ran[2]+ran[3]+4 { // + c and d reaching their first Block, a and b returning
		t.Fatalf("shards=%d: %d slices counted, threads ran %v", shards, got, ran)
	}
	s.Close()
	st := s.Stats()
	// Wall time and the runners started depend on the host, not the schedule.
	st.SliceWall, st.RoundCritical, st.RoundWall, st.RunnerStarts = 0, 0, 0, 0
	return log, st
}

func TestShardRunnerStress(t *testing.T) {
	rounds := 20000 // 10,000 trivial rounds, 10,000 wide ones
	if testing.Short() {
		rounds = 2000
	}
	work := spin(5 * time.Microsecond)
	pinProcs(t, 1)
	want, wantStats := stressRun(t, 1, rounds, work)
	if len(want) != rounds*3 {
		t.Fatalf("%d events at one shard, want %d", len(want), rounds*3)
	}
	for _, procs := range []int{1, 2, 4} {
		for _, shards := range []int{2, 4} {
			runtime.GOMAXPROCS(procs)
			got, stats := stressRun(t, shards, rounds, work)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("GOMAXPROCS=%d shards=%d: event log differs from the one-shard log", procs, shards)
			}
			if stats != wantStats {
				t.Errorf("GOMAXPROCS=%d shards=%d: stats %+v, want %+v", procs, shards, stats, wantStats)
			}
		}
	}
}

// TestShardRunnerEqualOrdinalsSerialise: threads of one ordinal share a
// bucket at every shard count, so they may share plain memory, and they
// touch it in drain order whether the conductor or a runner claimed them.
func TestShardRunnerEqualOrdinalsSerialise(t *testing.T) {
	const rounds = 3000
	work := spin(2 * time.Microsecond)
	run := func(shards int) []int {
		s := newSched(nil)
		s.SetShards(shards)
		var shared []int // written inside slices, never through Do
		for k, charge := range []time.Duration{3, 1, 2} {
			spawnDomain(s, fmt.Sprintf("coupled%d", k), 4, func(th *Thread) {
				for i := 0; i < rounds; i++ {
					shared = append(shared, k)
					th.Charge(charge * time.Microsecond)
					th.Yield()
				}
			})
		}
		for k := 0; k < 3; k++ { // company on other ordinals, of varying length
			spawnDomain(s, fmt.Sprintf("other%d", k), 1+k, func(th *Thread) {
				for i := 0; i < rounds; i++ {
					if (i+k)%3 == 0 {
						work()
					}
					th.Charge(time.Microsecond)
					th.Yield()
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return shared
	}
	want := run(1)
	if len(want) != 3*rounds {
		t.Fatalf("%d writes at one shard, want %d", len(want), 3*rounds)
	}
	for _, shards := range []int{2, 4} {
		if got := run(shards); !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: coupled threads wrote in another order than at one shard", shards)
		}
	}
}

// TestShardRoundAllocatesNothing: publishing, claiming, running, sorting
// and committing a warm two-bucket round of trivial slices.
func TestShardRoundAllocatesNothing(t *testing.T) {
	s := newSched(nil)
	s.SetShards(2)
	for k := 0; k < 2; k++ {
		spawnDomain(s, "domain", k, func(th *Thread) {
			for {
				th.Charge(time.Microsecond)
				th.Yield()
			}
		})
	}
	allocs := -1.0
	s.Spawn("meter", mem.AllowAll, func(th *Thread) {
		for i := 0; i < 10; i++ {
			th.Yield()
		}
		// One Yield of this system thread lets the two domain threads ahead
		// of it in the queue run as one round.
		allocs = testing.AllocsPerRun(500, th.Yield)
		s.Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Rounds < 500 || st.Slices != 2*st.Rounds {
		t.Fatalf("rounds=%d slices=%d: the meter did not measure two-slice rounds", st.Rounds, st.Slices)
	}
	if allocs != 0 {
		t.Fatalf("%v allocations per round, want 0", allocs)
	}
	s.Close()
}

// TestShardRunnerDisjointPages: mem.Memory takes no lock, because the
// slices of one round run threads of different ordinals and those never
// share a page. Two such threads write their own pages of one Memory, and
// each raises a protection fault, inside the same parallel rounds; under
// -race this is the proof, and afterwards the dirty tracking and the
// fault count must have seen every access.
func TestShardRunnerDisjointPages(t *testing.T) {
	const pages, rounds = 8, 200
	const space = 4 * pages
	m := mem.New(space * mem.PageSize)
	s := newSched(nil)
	s.SetShards(2)
	if err := s.SetMemory(m); err != nil {
		t.Fatal(err)
	}
	var bases [2]mem.Addr
	for k := range bases {
		base, err := m.AllocPages(pages, mem.Key(k+1))
		if err != nil {
			t.Fatal(err)
		}
		bases[k] = base
	}
	guard, err := m.AllocPages(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	spare, err := m.AllocPages(pages, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Images taken before the run: the writers' ranges, the page both
	// fault on, pages nobody touches, and the whole space.
	ranges := []struct {
		name  string
		base  mem.Addr
		n     int
		dirty int
	}{
		{"writer0", bases[0], pages, pages},
		{"writer1", bases[1], pages, pages},
		{"guard", guard, 1, 0},
		{"spare", spare, pages, 0},
	}
	before := make([]*mem.Snapshot, len(ranges))
	for i, r := range ranges {
		if before[i], err = m.Snapshot(r.base, r.n); err != nil {
			t.Fatal(err)
		}
	}
	whole, err := m.Snapshot(0, space)
	if err != nil {
		t.Fatal(err)
	}
	var threads [2]*Thread
	var faults [2]error
	for k := range threads {
		threads[k] = s.Spawn(fmt.Sprintf("writer%d", k), mem.Allow(mem.Key(k+1)), func(th *Thread) {
			acc := th.Accessor()
			for i := 0; i < rounds; i++ {
				if !th.Buffering() {
					t.Errorf("writer%d: iteration %d ran outside a round slice", k, i)
				}
				pg := bases[k] + mem.Addr(i%pages)*mem.PageSize
				if err := acc.Write(pg, []byte{byte(k), byte(i)}); err != nil {
					t.Errorf("writer%d: %v", k, err)
				}
				if i == rounds/2 {
					faults[k] = acc.Write(guard, []byte{1})
				}
				th.Charge(time.Microsecond)
				th.Yield()
			}
		})
		threads[k].SetClass(ClassDomain)
		threads[k].SetShard(k)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Rounds < rounds {
		t.Fatalf("%d parallel rounds, want at least %d", st.Rounds, rounds)
	}
	for k, th := range threads {
		var f *mem.Fault
		if !errors.As(faults[k], &f) || f.Addr != guard {
			t.Errorf("writer%d's guard-page write = %v, want a fault at %#x", k, faults[k], guard)
		}
		if n := th.Accessor().Faults(); n != 1 {
			t.Errorf("writer%d's accessor counted %d faults, want 1", k, n)
		}
	}
	if n := m.Faults(); n != 2 {
		t.Errorf("memory counted %d faults, want one from each side", n)
	}
	for i, r := range ranges {
		if _, n, err := m.SnapshotDelta(before[i]); err != nil || n != r.dirty {
			t.Errorf("%s: %d dirty pages, %v; want %d", r.name, n, err, r.dirty)
		}
	}
	next, dirty, err := m.SnapshotDelta(whole)
	if err != nil {
		t.Fatal(err)
	}
	if dirty != 2*pages {
		t.Errorf("SnapshotDelta found %d dirty pages, want %d", dirty, 2*pages)
	}
	// Each written page carries a stamp of its own: the version clock
	// both sides bump lost no increment.
	seen := map[uint64]bool{}
	for k, base := range bases {
		first := int(base / mem.PageSize)
		for i := 0; i < pages; i++ {
			v := next.Vers[first+i]
			if v == whole.Vers[first+i] || seen[v] {
				t.Errorf("writer%d page %d: stamp %d not fresh and unique", k, i, v)
			}
			seen[v] = true
			got := make([]byte, 2)
			if err := m.HostRead(base+mem.Addr(i)*mem.PageSize, got); err != nil {
				t.Fatal(err)
			}
			last := rounds - pages + i // the last iteration to write page i
			if want := []byte{byte(k), byte(last)}; !reflect.DeepEqual(got, want) {
				t.Errorf("writer%d page %d holds %v, want %v", k, i, got, want)
			}
		}
	}
}
