package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"vampos/internal/clock"
	"vampos/internal/mem"
)

// The poll leap must be invisible: a scene run with its poller on
// SleepPoll and the same scene run with it on plain Sleep have to agree
// on every counter, on the clock, and on when everyone else ran. Scenes
// are small and their times a handful of nanoseconds, so a timer landing
// exactly on a wake-up, or on the look one dispatch charge later, is
// common rather than lucky.

// actKind is one step of a scripted scene thread.
type actKind int

const (
	actSleep  actKind = iota // Sleep(arg)
	actYield                 // Yield
	actBlock                 // Block until someone wakes us
	actWake                  // Wake thread who (an actor, or a poller when who < 0)
	actSet                   // flag = true
	actClear                 // flag = false
	actTimer                 // bare timer armed for arg that flips the flag and wakes nobody
	actCharge                // Charge(arg)
	actKill                  // Kill poller 0, then spawn a thread that plain-Sleeps arg
	numActs
)

type act struct {
	kind actKind
	arg  time.Duration
	who  int
}

type actor struct {
	class Class
	shard int
	acts  []act
}

type poller struct {
	period, until time.Duration
	class         Class
	shard         int
}

// scene is everything that defines a run except which sleep the pollers use.
type scene struct {
	cost    time.Duration
	shards  int
	observe bool
	pollers []poller
	actors  []actor
	// timers are bare flag-setting callbacks armed before Run, at absolute
	// virtual times.
	timers []time.Duration
}

// outcome is what the two runs of a scene must agree on.
type outcome struct {
	Dispatches, ClockAdvances uint64
	PerThread                 []uint64
	Elapsed                   time.Duration
	Deadlock                  bool
	Log                       []string
}

func (sc scene) run(t testing.TB, leap bool) (outcome, Stats) {
	s := newSched(nil)
	s.SetDispatchCost(sc.cost)
	s.SetShards(sc.shards)
	if sc.observe {
		s.SetDispatchObserver(func(*Thread) {})
	}
	var (
		flag    bool
		log     []string
		pollers []*Thread
		actors  []*Thread
	)
	// Everything another thread can see goes through Do, so that a thread
	// inside a buffered slice journals it like core does.
	note := func(th *Thread, what string) {
		line := fmt.Sprintf("%s %s @%d", th.Name(), what, th.Elapsed())
		th.Do(func() { log = append(log, line) })
	}
	for i, p := range sc.pollers {
		p := p
		th := s.Spawn(fmt.Sprintf("poller%d", i), mem.AllowAll, func(th *Thread) {
			for {
				if flag {
					note(th, "sees flag")
					return
				}
				if th.Elapsed() >= p.until {
					note(th, "times out")
					return
				}
				if leap {
					th.SleepPoll(p.period, p.until)
				} else {
					th.Sleep(p.period)
				}
			}
		})
		th.SetClass(p.class)
		th.SetShard(p.shard)
		pollers = append(pollers, th)
	}
	for i, a := range sc.actors {
		a := a
		th := s.Spawn(fmt.Sprintf("actor%d", i), mem.AllowAll, func(th *Thread) {
			for _, step := range a.acts {
				step := step
				switch step.kind {
				case actSleep:
					th.Sleep(step.arg)
					note(th, "slept")
				case actYield:
					th.Yield()
					note(th, "yielded")
				case actBlock:
					th.Block("scene")
					note(th, "woken")
				case actWake:
					target := pollers[0]
					if step.who >= 0 {
						target = actors[step.who%len(actors)]
					} else if n := -step.who - 1; n < len(pollers) {
						target = pollers[n]
					}
					th.Do(target.Wake)
				case actSet:
					th.Do(func() { flag = true })
				case actClear:
					th.Do(func() { flag = false })
				case actTimer:
					th.Do(func() { s.Clock().Arm(new(clock.Timer), step.arg, func() { flag = !flag }) })
				case actCharge:
					th.Charge(step.arg)
				case actKill:
					th.Do(func() {
						pollers[0].Kill()
						s.Spawn("heir", mem.AllowAll, func(th *Thread) {
							th.Sleep(step.arg)
							note(th, "slept")
						})
					})
				}
			}
		})
		th.SetClass(a.class)
		th.SetShard(a.shard)
		actors = append(actors, th)
	}
	for _, at := range sc.timers {
		s.Clock().Arm(new(clock.Timer), at, func() { flag = true })
	}
	err := s.Run()
	if err != nil && !errors.Is(err, ErrDeadlock) {
		t.Fatal(err)
	}
	st := s.Stats()
	out := outcome{
		Dispatches:    st.Dispatches,
		ClockAdvances: st.ClockAdvances,
		Elapsed:       s.Clock().Elapsed(),
		Deadlock:      err != nil,
		Log:           log,
	}
	for _, th := range s.Threads() {
		out.PerThread = append(out.PerThread, th.Dispatches())
	}
	if s.polling != nil && err == nil {
		t.Errorf("poll mark left on %q after a finished run", s.polling.Name())
	}
	s.Close()
	return out, st
}

// differ runs the scene both ways and fails on the first disagreement. It
// returns the leaping run's outcome and counters.
func (sc scene) differ(t testing.TB) (outcome, Stats) {
	t.Helper()
	plain, pst := sc.run(t, false)
	leapt, lst := sc.run(t, true)
	if pst.Leaps != 0 || pst.Leaped != 0 {
		t.Fatalf("plain Sleep leapt: %+v", pst)
	}
	if !reflect.DeepEqual(plain, leapt) {
		t.Fatalf("scene %+v\nplain Sleep: %+v\nSleepPoll:   %+v (leaps %d, leaped %d)", sc, plain, leapt, lst.Leaps, lst.Leaped)
	}
	return leapt, lst
}

func randomScene(r *rand.Rand) scene {
	dur := func(n int) time.Duration { return time.Duration(1 + r.Intn(n)) }
	class := func() Class { return Class(r.Intn(3)) }
	sc := scene{
		cost:   time.Duration(r.Intn(3)),
		shards: []int{0, 0, 2}[r.Intn(3)],
		pollers: []poller{{
			period: dur(4),
			until:  dur(150),
			class:  class(),
			shard:  r.Intn(2),
		}},
	}
	for n := r.Intn(4); n > 0; n-- {
		a := actor{class: class(), shard: r.Intn(2)}
		for m := 1 + r.Intn(8); m > 0; m-- {
			a.acts = append(a.acts, act{
				kind: actKind(r.Intn(int(numActs))),
				arg:  dur(30),
				who:  r.Intn(5) - 1, // -1: the poller
			})
		}
		sc.actors = append(sc.actors, a)
	}
	for n := r.Intn(3); n > 0; n-- {
		sc.timers = append(sc.timers, dur(100))
	}
	return sc
}

func TestLeapMatchesPlainSleepOnRandomScenes(t *testing.T) {
	var leaps, leaped uint64
	prop := func(seed int64) bool {
		_, st := randomScene(rand.New(rand.NewSource(seed))).differ(t)
		leaps += st.Leaps
		leaped += st.Leaped
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
	if leaps == 0 || leaped < 2*leaps {
		t.Fatalf("the property barely exercised the leap: %d leaps over %d polls", leaps, leaped)
	}
	t.Logf("%d leaps over %d polls", leaps, leaped)
}

// onePoller is a scene of one poller that first looks at cost and then,
// every period+cost, at a_i+cost with a_i = cost + period + i*(period+cost).
func onePoller(cost, period, until time.Duration) scene {
	return scene{cost: cost, pollers: []poller{{period: period, until: until}}}
}

func wantLog(t *testing.T, got outcome, want ...string) {
	t.Helper()
	if !reflect.DeepEqual(got.Log, want) {
		t.Fatalf("log = %q, want %q", got.Log, want)
	}
}

func TestLeapStopsShortOfATimerOnAWakeUp(t *testing.T) {
	// cost 1, period 2: wake-ups at 3, 6, 9, 12; looks one later. A timer
	// exactly on the wake-up at 9 fires in the same clock advance as the
	// wake, so that poll has to run: two are leapt, not three.
	sc := onePoller(1, 2, 1000)
	sc.timers = []time.Duration{9}
	got, st := sc.differ(t)
	wantLog(t, got, "poller0 sees flag @10")
	if st.Leaps != 1 || st.Leaped != 2 {
		t.Fatalf("leaps %d leaped %d, want 1 and 2", st.Leaps, st.Leaped)
	}
}

func TestLeapStopsShortOfATimerOnTheLook(t *testing.T) {
	// The same poller with the timer at 10 = a_2 + cost: it fires inside
	// the dispatch charge of the third poll, just before the poller looks.
	sc := onePoller(1, 2, 1000)
	sc.timers = []time.Duration{10}
	got, st := sc.differ(t)
	wantLog(t, got, "poller0 sees flag @10")
	if st.Leaped != 2 {
		t.Fatalf("leaped %d, want 2", st.Leaped)
	}
	// With no dispatch charge the wake-up and the look are one instant.
	sc = onePoller(0, 2, 1000)
	sc.timers = []time.Duration{6}
	got, st = sc.differ(t)
	wantLog(t, got, "poller0 sees flag @6")
	if st.Leaped != 2 {
		t.Fatalf("free dispatches: leaped %d, want 2", st.Leaped)
	}
}

func TestLeapObservesTheTimeoutAtTheSameInstant(t *testing.T) {
	// Nothing else pending: one leap carries the poller to the look that
	// times out. Looks fall at 1, 4, 7, ...; the first at or past 50 is 52.
	got, st := onePoller(1, 2, 50).differ(t)
	wantLog(t, got, "poller0 times out @52")
	if st.Leaps != 1 || st.Leaped != 16 || got.Dispatches != 18 || got.ClockAdvances != 17 {
		t.Fatalf("leaps %d leaped %d dispatches %d advances %d", st.Leaps, st.Leaped, got.Dispatches, got.ClockAdvances)
	}
	// until exactly on a look: that look has to execute.
	got, st = onePoller(1, 2, 49).differ(t)
	wantLog(t, got, "poller0 times out @49")
	if st.Leaped != 15 {
		t.Fatalf("leaped %d, want 15", st.Leaped)
	}
}

func TestLeapRefusedWhenSomeoneRanAfterThePollerParked(t *testing.T) {
	// The prototype's bug. The poller parks, then the answerer — already
	// ready behind it — sets the flag and goes to sleep for a long time.
	// The conductor now idles with the poller's timer first and nothing
	// else due until 1000, but the poller's last look is stale.
	sc := onePoller(1, 2, 5000)
	sc.actors = []actor{{acts: []act{{kind: actSet}, {kind: actSleep, arg: 1000}}}}
	got, st := sc.differ(t)
	wantLog(t, got, "poller0 sees flag @4", "actor0 slept @1003")
	if st.Leaps != 0 {
		t.Fatalf("leapt %d polls past an answer already given", st.Leaped)
	}
}

func TestLeapRefusedWhenARoundRanAfterThePollerParked(t *testing.T) {
	// The same staleness through the round engine: the poller runs live,
	// then the two domain threads queued behind it run as one round, and
	// one of them answers from inside its slice.
	sc := onePoller(1, 5, 5000)
	sc.shards = 2
	sc.actors = []actor{
		{class: ClassDomain, acts: []act{{kind: actSet}, {kind: actSleep, arg: 1000}}},
		{class: ClassDomain, shard: 1, acts: []act{{kind: actSleep, arg: 1000}}},
	}
	got, st := sc.differ(t)
	if st.Rounds != 1 || st.Leaps != 0 || got.Log[0] != "poller0 sees flag @7" {
		t.Fatalf("rounds %d, leaps %d over %d polls, log %q", st.Rounds, st.Leaps, st.Leaped, got.Log)
	}
}

func TestLeapAfterAnEarlyWake(t *testing.T) {
	// The actor wakes the poller in the middle of a period; the poller
	// looks, re-arms from there, and later leaps run off the new phase.
	sc := onePoller(1, 4, 200)
	sc.actors = []actor{{acts: []act{{kind: actSleep, arg: 12}, {kind: actWake, who: -1}, {kind: actSleep, arg: 60}, {kind: actSet}}}}
	got, st := sc.differ(t)
	if st.Leaps < 2 || len(got.Log) != 3 {
		t.Fatalf("leaps %d, log %q", st.Leaps, got.Log)
	}
}

func TestKilledPollSleeperLeavesNoMark(t *testing.T) {
	// The killer ends the poller while it is parked in SleepPoll and hands
	// over to an heir that sleeps plainly, with nothing else pending: a
	// mark left on the scheduler or the dead thread would leap the heir.
	sc := onePoller(1, 2, 5000)
	sc.actors = []actor{{acts: []act{{kind: actSleep, arg: 20}, {kind: actKill, arg: 300}}}}
	got, _ := sc.differ(t)
	wantLog(t, got, "actor0 slept @23", "heir slept @326")
	if heir := got.PerThread[2]; heir != 2 {
		t.Fatalf("heir dispatched %d times, want 2", heir)
	}
}

func TestTwoPollersAreBarriersToEachOther(t *testing.T) {
	sc := scene{cost: 1, pollers: []poller{{period: 2, until: 90}, {period: 7, until: 120}}}
	sc.timers = []time.Duration{200}
	got, st := sc.differ(t)
	if st.Leaps == 0 || len(got.Log) != 2 {
		t.Fatalf("leaps %d, log %q", st.Leaps, got.Log)
	}
	// No leap may cross the other poller's wake-up, so none is longer than
	// the slower period allows.
	if st.Leaped > st.Leaps*3 {
		t.Fatalf("%d polls in %d leaps with a 7ns poller alongside", st.Leaped, st.Leaps)
	}
}

func TestPollerInsideARoundExecutes(t *testing.T) {
	// Two domain threads that sleep in step wake together and run as a
	// buffered round; a slice cannot mark the conductor, so those polls
	// execute, and the run still matches plain Sleep.
	sc := scene{cost: 1, shards: 2,
		pollers: []poller{{period: 3, until: 40, class: ClassDomain}},
		actors:  []actor{{class: ClassDomain, shard: 1}},
	}
	for i := 0; i < 6; i++ {
		sc.actors[0].acts = append(sc.actors[0].acts, act{kind: actSleep, arg: 3})
	}
	_, st := sc.differ(t)
	if st.Rounds == 0 {
		t.Fatal("the scene ran no round")
	}
}

func TestDispatchObserverSeesEveryPoll(t *testing.T) {
	sc := onePoller(1, 2, 50)
	sc.observe = true
	observed, st := sc.differ(t)
	if st.Leaps != 0 || st.Leaped != 0 {
		t.Fatalf("leapt with an observer attached: %+v", st)
	}
	sc.observe = false
	if unobserved, _ := sc.differ(t); !reflect.DeepEqual(observed, unobserved) {
		t.Fatalf("observer changed the run:\n%+v\n%+v", observed, unobserved)
	}
}

func TestDumpShowsPollSleeper(t *testing.T) {
	s := newSched(nil)
	s.Spawn("poller", mem.AllowAll, func(th *Thread) { th.SleepPoll(2*time.Microsecond, 500*time.Millisecond) })
	s.Spawn("reader", mem.AllowAll, func(*Thread) {
		if dump := s.dumpThreads(); !strings.Contains(dump, `"poller": sleeping (poll 2µs until 500ms)`) {
			t.Errorf("dump:\n%s", dump)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
