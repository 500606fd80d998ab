// Package sched implements the cooperative single-CPU thread scheduler
// underneath VampOS.
//
// The paper's unikernel prototype runs all component threads on one vCPU
// under Unikraft's cooperative scheduler, and its entire overhead model is
// "one cross-component message costs scheduler dispatches" (§V-A, §V-C).
// A preemptive Go runtime would hide that cost structure, so this package
// serialises execution: every simulated thread is a runtime coroutine
// (iter.Pull, coro.go). Dispatch switches the dispatcher's OS thread
// straight into the thread, and a yield, block, sleep or exit switches it
// straight back, so exactly one runs at any instant and no switch goes
// through Go's run queue, whose wake-ups of the idle P would cost several
// times the switch itself.
//
// When no thread is ready the scheduler advances the virtual clock to the
// next pending timer, making the whole system a deterministic
// discrete-event simulation.
//
// With SetShards, a run of ready domain threads executes as one parallel
// round (shard.go): threads of one shard ordinal share a bucket and serialise;
// the conductor and runner goroutines alive only inside Run execute buckets.
//
// One kind of dispatch is charged without being executed: the wake-ups of
// a SleepPoll loop that was the last thing to run before the conductor went
// idle, up to the first one another timer could touch (Scheduler.leap).
package sched

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vampos/internal/clock"
	"vampos/internal/mem"
)

// State is a thread's lifecycle state.
type State uint8

// Thread states.
const (
	StateNew State = iota + 1
	StateReady
	StateRunning
	StateBlocked
	StateSleeping
	StateDone
)

func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateSleeping:
		return "sleeping"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// ErrDeadlock is returned by Run when no thread is ready, no timer is
// pending, and Stop was not requested.
var ErrDeadlock = errors.New("sched: deadlock: no runnable thread and no pending timer")

// killSentinel unwinds a killed thread's goroutine; the thread wrapper
// recovers it. It must never be swallowed outside this package.
type killSentinel struct{ t *Thread }

// IsKill reports whether a recovered panic value is the scheduler's
// kill-unwind sentinel. Code that recovers panics inside a simulated
// thread (e.g. the component failure detector) must re-panic such values
// so a Kill can finish unwinding the thread.
func IsKill(r any) bool {
	_, ok := r.(killSentinel)
	return ok
}

// Stats counts scheduler activity; the benchmarks report Dispatches as
// the "component transitions" figure the paper quotes per system call.
type Stats struct {
	Dispatches    uint64
	ClockAdvances uint64
	Spawned       uint64
	Killed        uint64
	// Leaps counts the conductor's leaps of a parked poller over idle time,
	// Leaped the empty polls they charged (to Dispatches, ClockAdvances and
	// the thread) without executing: Dispatches-Leaped is what actually ran.
	Leaps  uint64
	Leaped uint64
	// Rounds counts parallel rounds executed by the shard engine
	// (zero under the legacy single-baton mode).
	Rounds uint64
	// Slices counts buffered timeslices executed inside rounds.
	Slices uint64
	// PenFlushes counts app-thread pen releases; Penned counts the
	// threads released. Penned/PenFlushes is the mean width of the
	// application-parallel rounds — the figure that must exceed one for
	// the scaling experiment to see wall-clock speedup.
	PenFlushes uint64
	Penned     uint64
	// SliceWall is the total real (host) time spent executing buffered
	// slices; RoundCritical is the per-round maximum across runner
	// buckets, summed — the critical path a machine with at least
	// min(shards, round width) free cores would pay. Both are
	// measurement-only: they feed the scaling figure's parallel-capacity
	// estimate and never influence the schedule, so determinism of the
	// simulation is untouched (the values themselves vary with host
	// speed, like any wall-clock benchmark reading).
	SliceWall     time.Duration
	RoundCritical time.Duration
	// RoundWall is what the rounds took on the conductor's wall clock, to
	// their last bucket done; RoundCritical/RoundWall is at best 1.
	RoundWall time.Duration
	// RunnerStarts counts the runner goroutines the round engine started:
	// at most min(shards, GOMAXPROCS)-1 per Run that reached a multi-bucket
	// round. Like the wall times it depends on the host, not the schedule.
	RunnerStarts uint64
}

// Scheduler owns all simulated threads and the virtual clock.
type Scheduler struct {
	clk     *clock.Virtual
	policy  Policy
	threads []*Thread
	nextID  int
	current *Thread
	stopped bool
	stats   Stats
	// memory backs thread accessors (nil when the simulation does not
	// model guest memory, e.g. in scheduler unit tests).
	memory *mem.Memory
	// dispatchCost is virtual time charged per dispatch (context-switch
	// cost in the experiment cost model).
	dispatchCost time.Duration
	// onDispatch, if set, observes every dispatch (flight recorder).
	onDispatch func(*Thread)
	// polling is the thread that parked in SleepPoll during the latest
	// dispatch, nil once anything else has run: the freshness guard of leap.
	polling *Thread
	// nshards is the number of shard batons, the buckets a parallel round
	// may split into. Zero keeps the legacy single-baton dispatch loop
	// bit-for-bit; SetShards enables the round engine (see shard.go).
	nshards int
	// batchBuf, buckets (by ordinal mod nshards), and runnerOrder (the
	// non-empty ones in drain order) are round-engine scratch space reused
	// across rounds to keep the steady state allocation-free.
	batchBuf    []*Thread
	buckets     [][]*Thread
	runnerOrder []int
	// The round in flight: roundBase, buckets and runnerOrder are written
	// before round publishes them, not again until finished counts them all.
	roundBase time.Duration
	round     atomic.Uint64
	finished  atomic.Uint32
	// runners is non-nil from a Run's first multi-bucket round to its end.
	runners  []*runner
	quit     atomic.Bool
	runnerWG sync.WaitGroup
	// pen holds ready ClassApp threads the conductor is deferring until
	// quiescence, in pop order (see shard.go on why app threads batch at
	// quiescence instead of dispatching eagerly).
	pen []*Thread
}

// SetDispatchObserver installs fn to run on every thread dispatch, on
// the scheduler goroutine, just before control transfers. Pass nil to
// remove. The flight recorder uses it for dispatch-level traces.
func (s *Scheduler) SetDispatchObserver(fn func(*Thread)) { s.onDispatch = fn }

// SetDispatchCost charges d of virtual time on every thread dispatch,
// modelling the context-switch cost the paper's message passing pays per
// hop. Zero disables charging.
func (s *Scheduler) SetDispatchCost(d time.Duration) { s.dispatchCost = d }

// New creates a scheduler over the given virtual clock using policy.
func New(clk *clock.Virtual, policy Policy) *Scheduler {
	if clk == nil {
		panic("sched: nil clock")
	}
	if policy == nil {
		policy = NewRoundRobin()
	}
	return &Scheduler{
		clk:    clk,
		policy: policy,
	}
}

// Clock returns the scheduler's virtual clock.
func (s *Scheduler) Clock() *clock.Virtual { return s.clk }

// Stats returns a copy of the scheduler counters.
func (s *Scheduler) Stats() Stats { return s.stats }

// Current returns the running thread, or nil outside Run.
func (s *Scheduler) Current() *Thread { return s.current }

// Thread is one cooperative thread of execution.
type Thread struct {
	sched *Scheduler
	id    int
	name  string
	state State
	// next switches the dispatching goroutine (conductor or a runner)
	// into the thread's coroutine until it parks or ends; yield switches
	// back. Calls to next for one thread never overlap.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	fn    func(*Thread)
	pkru  mem.PKRU
	acc   *mem.Accessor

	killed     bool
	panicVal   any // non-nil when fn ended by panic (not a kill)
	dispatches uint64
	parkedOn   parkReason
	// wakeTimer ends a Sleep by running wake (t.Wake, bound once); it is
	// re-armed for every sleep and pending only while the thread sleeps.
	wakeTimer clock.Timer
	wake      func()
	// queued and hinted are the policy's membership marks: in the ready
	// queue, in the dependency-aware hint list.
	queued, hinted bool

	// class separates domain threads (component workers, app threads),
	// which may execute inside buffered parallel rounds, from system
	// threads (msg thread, watchdog, host services), which always run
	// live on the conductor. Spawn defaults to ClassSystem.
	class Class
	// shard is the thread's shard ordinal; its slices run in bucket
	// shard % nshards, so coupled threads given the same ordinal share a
	// bucket at every shard count.
	shard int
	// nameHash is the FNV-1a hash of name, the deterministic tiebreak in
	// the cross-shard merge rule.
	nameHash uint64
	// running is true while the thread's goroutine holds control; it
	// replaces the Scheduler.current identity check, which cannot name a
	// unique current thread during a parallel round.
	running bool

	// Buffered-slice journal (see shard.go). Owned by the thread's
	// coroutine while running, by the dispatching runner before/after;
	// the coroutine switches order all accesses.
	buffering   bool
	sliceBase   time.Duration // global virtual time frozen at round start
	sliceCharge time.Duration // virtual time charged so far this slice
	sliceOps    []sliceOp
	journal     Journal       // typed entries the sliceOps' posts flush
	sliceSleep  time.Duration // >=0: Sleep(d) requested at slice end
	sliceYield  bool          // slice ended in Yield (re-enqueue at commit)
	sliceWall   time.Duration // real time the last slice took to execute

	// OnKill, if set, runs on the scheduler's goroutine after a killed
	// thread has finished unwinding. The reboot manager uses it.
	OnKill func()
}

// Name returns the thread's diagnostic name.
func (t *Thread) Name() string { return t.name }

// State returns the thread's lifecycle state.
func (t *Thread) State() State { return t.state }

// PanicValue returns the value fn panicked with, or nil.
func (t *Thread) PanicValue() any { return t.panicVal }

// Accessor returns the thread's protection-checked memory accessor, or
// nil when the scheduler was built without SetMemory.
func (t *Thread) Accessor() *mem.Accessor { return t.acc }

// SetPKRU installs a new protection word, effective immediately.
func (t *Thread) SetPKRU(p mem.PKRU) {
	t.pkru = p
	if t.acc != nil {
		t.acc.SetPKRU(p)
	}
}

// memory is set once via SetMemory; threads derive accessors from it.
var errMemAlreadySet = errors.New("sched: memory already set")

// SetMemory attaches the address space from which thread accessors are
// derived. Must be called before the first Spawn that needs an accessor.
func (s *Scheduler) SetMemory(m *mem.Memory) error {
	if s.memory != nil {
		return errMemAlreadySet
	}
	s.memory = m
	return nil
}

// Spawn creates a thread named name running fn with protection word pkru
// and puts it on the ready queue. It may be called before Run or from any
// live-dispatched thread; code that may run inside a buffered round slice
// must use SpawnFrom instead.
func (s *Scheduler) Spawn(name string, pkru mem.PKRU, fn func(*Thread)) *Thread {
	t := s.newThread(name, pkru, fn)
	s.register(t)
	return t
}

// SpawnFrom spawns a thread on behalf of caller. When the caller is
// executing inside a buffered round slice, registration (id assignment,
// ready-queue insertion, goroutine start) is journaled so it lands at
// commit in the deterministic merge order; otherwise it behaves exactly
// like Spawn. The returned handle is valid immediately.
func (s *Scheduler) SpawnFrom(caller *Thread, name string, pkru mem.PKRU, fn func(*Thread)) *Thread {
	if caller != nil && caller.buffering {
		t := s.newThread(name, pkru, fn)
		caller.Do(func() { s.register(t) })
		return t
	}
	return s.Spawn(name, pkru, fn)
}

// newThread builds a thread without touching any conductor-owned state,
// so it is safe to call from inside a round slice.
func (s *Scheduler) newThread(name string, pkru mem.PKRU, fn func(*Thread)) *Thread {
	if fn == nil {
		panic("sched: Spawn with nil fn")
	}
	t := &Thread{
		sched:      s,
		name:       name,
		state:      StateReady,
		fn:         fn,
		pkru:       pkru,
		nameHash:   fnv64a(name),
		sliceSleep: -1,
	}
	t.wake = t.Wake
	if s.memory != nil {
		t.acc = mem.NewAccessor(s.memory, pkru)
	}
	return t
}

// register makes a thread schedulable: conductor-side only.
func (s *Scheduler) register(t *Thread) {
	s.nextID++
	t.id = s.nextID
	s.threads = append(s.threads, t)
	s.stats.Spawned++
	s.policy.Enqueue(t)
	t.next = newCoro(t.run)
}

// run is the coroutine body; it starts at the thread's first dispatch.
func (t *Thread) run(yield func(struct{}) bool) {
	t.yield = yield
	defer func() {
		if r := recover(); r != nil {
			if ks, ok := r.(killSentinel); ok && ks.t == t {
				// Clean unwind of a killed thread.
			} else {
				t.panicVal = r
			}
		}
		t.state = StateDone
	}()
	if t.killed {
		// Killed before ever being dispatched: unwind without running fn.
		panic(killSentinel{t: t})
	}
	t.fn(t)
}

// switchOut returns control to the dispatcher (conductor or shard
// runner) and parks until redispatched, then honours a pending kill.
func (t *Thread) switchOut() {
	t.yield(struct{}{})
	if t.killed {
		panic(killSentinel{t: t})
	}
}

// Yield places the thread at the back of the ready queue and runs someone
// else. A polling component calls this between empty mailbox checks.
// Inside a buffered slice the re-enqueue is deferred to commit so the
// ready queue is mutated only in the deterministic merge order.
func (t *Thread) Yield() {
	t.mustBeCurrent("Yield")
	t.state = StateReady
	if t.buffering {
		t.sliceYield = true
		t.switchOut()
		return
	}
	t.sched.policy.Enqueue(t)
	t.switchOut()
}

// parkReason says why a thread is blocked or sleeping. Parking happens on
// every dispatch and the reason is read only by the deadlock dump, so it
// is kept as parts and formatted there.
type parkReason struct {
	text  string        // Block's reason, or BlockCall's target
	fn    string        // BlockCall's function
	sleep time.Duration // Sleep's duration
	poll  bool          // SleepPoll: the sleep is one period of a poll loop
	until time.Duration // SleepPoll: when that loop gives up
}

func (r parkReason) String() string {
	switch {
	case r.poll:
		return fmt.Sprintf("poll %v until %v", r.sleep, r.until)
	case r.sleep > 0:
		return fmt.Sprintf("sleep %v", r.sleep)
	case r.fn != "":
		return "call " + r.text + "." + r.fn
	}
	return r.text
}

// Block parks the thread until another thread (or a timer callback) calls
// Wake. The reason string appears in deadlock dumps.
func (t *Thread) Block(reason string) { t.block(parkReason{text: reason}) }

// BlockCall is Block for a caller awaiting the reply to target.fn; the
// dump shows it as "call target.fn".
func (t *Thread) BlockCall(target, fn string) { t.block(parkReason{text: target, fn: fn}) }

func (t *Thread) block(why parkReason) {
	t.mustBeCurrent("Block")
	t.state = StateBlocked
	t.parkedOn = why
	t.switchOut()
}

// Wake moves a blocked or sleeping thread to the ready queue. Waking a
// ready, running, or finished thread is a harmless no-op, so wake-ups
// never get lost to races with Block.
func (t *Thread) Wake() {
	switch t.state {
	case StateBlocked, StateSleeping:
		if t.state == StateSleeping {
			t.wakeTimer.Stop() // a no-op when the timer's firing is what wakes us
		}
		t.state = StateReady
		t.parkedOn = parkReason{}
		t.sched.policy.Enqueue(t)
	}
}

// Sleep parks the thread for d of virtual time. Inside a buffered slice
// the timer registration is deferred to commit: the timer then measures
// from the clock position the commit replay has reached, which is exactly
// where a sequential execution in merge order would have registered it.
func (t *Thread) Sleep(d time.Duration) { t.sleep(parkReason{sleep: d}) }

// SleepPoll is Sleep(d) for the caller's promise about the loop it sits in:
// each turn only reads a condition that nothing but another simulated
// thread or a timer callback can change, gives up once Elapsed reaches
// until, and otherwise calls SleepPoll(d, until) again. The schedule, the
// clock and every counter come out as with Sleep; the promise lets the
// conductor charge the turns whose outcome is already known instead of
// executing them (see leap).
func (t *Thread) SleepPoll(d, until time.Duration) {
	t.sleep(parkReason{sleep: d, poll: true, until: until})
}

func (t *Thread) sleep(why parkReason) {
	t.mustBeCurrent("Sleep")
	if why.sleep <= 0 {
		t.Yield()
		return
	}
	t.state = StateSleeping
	t.parkedOn = why
	if t.buffering {
		t.sliceSleep = why.sleep
		t.switchOut()
		return
	}
	if why.poll {
		t.sched.polling = t // conductor state: a buffered slice must not get here
	}
	t.sched.clk.Arm(&t.wakeTimer, why.sleep, t.wake)
	t.switchOut()
}

// Kill marks a thread for termination. A parked thread is unwound the
// next time the scheduler would dispatch it; the current thread cannot
// kill itself (it should just return). Kill is idempotent.
func (t *Thread) Kill() {
	if t.state == StateDone || t.killed {
		return
	}
	if t.running {
		panic("sched: thread cannot Kill itself")
	}
	t.killed = true
	t.sched.stats.Killed++
	// Ensure the victim gets dispatched so it can unwind.
	t.Wake()
}

// Hint tells a dependency-aware policy to prefer target soon; with other
// policies it is a no-op. The VampOS interposition layer calls this when
// a component pushes a message (paper §V-C).
func (s *Scheduler) Hint(target *Thread) {
	s.policy.Hint(target)
}

// Stop makes Run return after the current dispatch completes.
func (s *Scheduler) Stop() { s.stopped = true }

// Close unwinds every thread that has not finished, so a simulation that
// will not run again gives up its parked coroutines and everything their
// stacks reference. Call it from the host goroutine once Run has returned
// and the results have been read: the threads' deferred functions run as
// in a Kill, but outside dispatch — no dispatch charge, no OnKill or panic
// handler — and a thread that parks while unwinding is switched into again
// until it ends.
func (s *Scheduler) Close() {
	s.stopped = true
	for i := 0; i < len(s.threads); i++ { // unwinding code may spawn
		t := s.threads[i]
		for t.state != StateDone {
			t.killed = true
			s.current, t.running = t, true
			t.next()
			s.current, t.running = nil, false
		}
	}
}

func (t *Thread) mustBeCurrent(op string) {
	if !t.running {
		panic(fmt.Sprintf("sched: %s called on %q which is not the running thread", op, t.name))
	}
}

// Run dispatches threads until Stop is requested, every thread finishes,
// or the system deadlocks. It must be called from the host goroutine, not
// from a simulated thread.
//
// With shards disabled (the default) this is the paper's single-baton
// loop, bit-for-bit. With SetShards(n), runs of two or more consecutive
// ready domain threads execute as a buffered parallel round (shard.go);
// system threads and singleton batches still take the live path below, so
// relay-style workloads keep their exact legacy schedule.
func (s *Scheduler) Run() error {
	defer func() { s.current = nil }()
	defer s.stopRunners()
	s.polling = nil // the host may have changed anything since the last Run
	for {
		if s.stopped {
			return nil
		}
		t := s.nextReady()
		if t == nil {
			// Conductor quiescence: nothing but penned app threads can
			// run. Release the pen as one wide parallel round before
			// advancing the clock — the penned threads are ready *now*.
			if len(s.pen) > 0 {
				s.flushPen()
				continue
			}
			if s.allDone() {
				return nil
			}
			// Nothing ready: let virtual time advance to the next timer,
			// whose callbacks may wake threads.
			s.leap()
			if s.clk.AdvanceToNext() {
				s.stats.ClockAdvances++
				continue
			}
			return fmt.Errorf("%w\n%s", ErrDeadlock, s.dumpThreads())
		}
		if s.nshards == 0 {
			s.dispatch(t)
			continue
		}
		if t.class == ClassApp {
			s.pen = append(s.pen, t)
			continue
		}
		if t.class != ClassDomain {
			s.dispatch(t)
			continue
		}
		// Shard mode: gather the run of ready domain threads at the head
		// of the queue. App threads encountered mid-run join the pen; a
		// system thread ends the batch and is held for immediate live
		// dispatch afterwards, preserving its pop order.
		batch := append(s.batchBuf[:0], t)
		var held *Thread
		for {
			u := s.nextReady()
			if u == nil {
				break
			}
			if u.class == ClassApp {
				s.pen = append(s.pen, u)
				continue
			}
			if u.class != ClassDomain {
				held = u
				break
			}
			batch = append(batch, u)
		}
		s.batchBuf = batch
		if len(batch) == 1 {
			s.dispatch(batch[0])
		} else {
			s.runRound(batch)
		}
		if held != nil && !s.stopped && held.state == StateReady {
			s.dispatch(held)
		}
	}
}

// nextReady pops ready-queue entries until a genuinely ready thread (or
// nothing) remains. Entries for done or re-parked threads are stale.
func (s *Scheduler) nextReady() *Thread {
	for {
		t := s.policy.Next()
		if t == nil || t.state == StateReady {
			return t
		}
	}
}

// leap charges, without executing them, the polls of the marked thread
// that cannot find anything. The conductor is idle and the thread is the
// last thing that ran — every dispatch and round clears the mark, and it is
// consumed here before any timer fires — so the condition it saw false
// stays false until another timer's callback runs. Each wake-up whose look
// comes before that, and before the loop's own deadline, would cost one
// clock advance, one dispatch charge and one re-arming: LeapPolls applies
// them to the clock, the counters follow. The next wake-up, the first that
// may share its instant with another event, executes as ever; one leap per
// real poll is enough, since a second could only be refused. A dispatch
// observer stamps each dispatch from the clock, so under one polls execute.
func (s *Scheduler) leap() {
	p := s.polling
	s.polling = nil
	if p == nil || s.onDispatch != nil {
		return
	}
	k := uint64(s.clk.LeapPolls(&p.wakeTimer, p.parkedOn.sleep+s.dispatchCost, s.dispatchCost, p.parkedOn.until))
	if k == 0 {
		return
	}
	p.dispatches += k
	s.stats.Dispatches += k
	s.stats.ClockAdvances += k
	s.stats.Leaps++
	s.stats.Leaped += k
}

func (s *Scheduler) dispatch(t *Thread) {
	s.polling = nil
	if s.dispatchCost > 0 {
		// Charge before the state change so timer callbacks fired by the
		// advance see a consistent (not-yet-running) thread.
		s.clk.Advance(s.dispatchCost)
		if t.state != StateReady {
			// A timer callback re-parked or killed the thread; requeue
			// decisions already happened inside the callback.
			return
		}
	}
	t.state = StateRunning
	t.dispatches++
	s.stats.Dispatches++
	if s.onDispatch != nil {
		s.onDispatch(t)
	}
	s.current = t
	t.running = true
	t.next()
	t.running = false
	s.current = nil
	if t.state == StateDone {
		if t.killed && t.OnKill != nil {
			t.OnKill()
		}
	}
}

func (s *Scheduler) allDone() bool {
	for _, t := range s.threads {
		if t.state != StateDone {
			return false
		}
	}
	return true
}

func (s *Scheduler) dumpThreads() string {
	var b strings.Builder
	for _, t := range s.threads {
		if t.state == StateDone {
			continue
		}
		fmt.Fprintf(&b, "  thread %d %q: %s", t.id, t.name, t.state)
		if t.parkedOn != (parkReason{}) {
			fmt.Fprintf(&b, " (%s)", t.parkedOn)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
