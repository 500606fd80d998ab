// Shard batons: deterministic parallel rounds.
//
// The paper's cost model needs cooperative dispatch, but one global baton
// serialises the whole instance. This file multiplexes the baton: when
// the ready queue holds a run of two or more domain threads (component
// workers, app threads), the scheduler executes all of them as one
// *round*. The threads are partitioned into buckets by shard ordinal mod
// SetShards, and each runs one buffered timeslice, in drain order within
// its bucket, with every globally visible effect — virtual-time charges,
// timer registrations, ready-queue insertions, deferred closures handed
// in via Thread.Do — journaled instead of applied. While a round is in
// flight the global clock is frozen at the round's start; each slice sees
// round-start time plus its own charges (Thread.Elapsed), a per-shard
// virtual time that floats above the committed global watermark.
//
// The ordinal decides which threads share a bucket, not who executes it:
// a round of one bucket runs inline, a wider one is published to this
// Run's persistent runners by one atomic store of the round word, and
// conductor and runners claim whole buckets by compare-and-swap on it. Its
// generation gives each bucket one claim, made while its round is open.
// An idle runner parks after a short wall-time window: a host clock
// reading that decides when a goroutine sleeps, never what a round does.
//
// When every slice has parked, the conductor commits the journals
// sequentially in the *merge order*: ascending slice-end virtual time,
// ties broken by FNV-1a of the thread name, then by spawn id. Committing
// a journal replays its charges (firing any timers they reach) and runs
// its deferred closures, so the committed global state is exactly what a
// sequential execution of the batch in merge order would have produced.
// Batch composition, slice behaviour, and merge order are all pure
// functions of deterministic scheduler state — never of which goroutine
// ran a slice, or when — so a given seed produces one canonical event
// order regardless of GOMAXPROCS *and* regardless of the shard count:
// shards only choose which slices may execute side by side, and threads
// sharing mutable structures are given equal ordinals so they share a
// bucket (and hence serialise, in drain order) at every shard count.
package sched

import (
	"cmp"
	"hash/fnv"
	"runtime"
	"slices"
	"sync/atomic"
	"time"
)

// Class partitions threads by their relationship to the shard engine.
type Class uint8

const (
	// ClassSystem threads (msg thread, watchdog, aging, boot, host
	// services, cluster drivers) always run live on the conductor, one
	// at a time, with legacy semantics. This keeps every structure they
	// share with each other — and with parked domain threads — free of
	// concurrent access.
	ClassSystem Class = iota
	// ClassDomain threads (component group workers) may execute inside
	// buffered parallel rounds when several are ready back to back.
	ClassDomain
	// ClassApp threads (in-guest application threads) are *penned* in
	// shard mode: when one becomes ready the conductor holds it aside and
	// keeps draining system and component work first, releasing the whole
	// pen as one wide parallel round once nothing else can run. Without
	// the pen an app thread is dispatched the instant its syscall reply
	// lands — a width-one round that walls off the conductor — so two
	// application domains' handler work could never overlap even though
	// the domains are independent. Penning is a pure scheduling delay:
	// release order and slice semantics follow the same merge rule, so
	// behaviour is still one canonical order at every shard count.
	ClassApp
)

// sliceOp is one journaled effect of a buffered timeslice, in program order:
// a virtual-time charge, a deferred closure, or its dispatch accounting.
type sliceOp struct {
	charge   time.Duration
	fn       func()
	dispatch bool
}

// SetShards enables the round engine with n shard batons (the buckets a
// round may split into). n < 1 restores the legacy single-baton loop. Call
// before Run; the shard count is part of the schedule-defining configuration
// even though, by construction, it cannot change observable behaviour.
func (s *Scheduler) SetShards(n int) {
	if n < 1 {
		n = 0
	}
	s.nshards = n
}

// Shards returns the configured shard count (0 = legacy single baton).
func (s *Scheduler) Shards() int { return s.nshards }

// SetClass assigns the thread's scheduling class. Call before the
// thread's first dispatch.
func (t *Thread) SetClass(c Class) { t.class = c }

// SetShard assigns the thread's shard ordinal. Threads that share
// mutable memory outside the message-passing boundary must be given the
// same ordinal: equal ordinals share a bucket at every shard count,
// which is what keeps cross-shard-count behaviour identical.
func (t *Thread) SetShard(n int) {
	if n < 0 {
		n = 0
	}
	t.shard = n
}

// ShardOrdinal returns the thread's shard ordinal.
func (t *Thread) ShardOrdinal() int { return t.shard }

// Buffering reports whether the thread is currently executing inside a
// buffered round slice (journaling its global effects).
func (t *Thread) Buffering() bool { return t.buffering }

// Charge advances virtual time by d on behalf of this thread: live when
// the thread holds the real baton, journaled during a buffered slice.
// Core charges every cost-model increment through here.
func (t *Thread) Charge(d time.Duration) {
	if d <= 0 {
		return
	}
	if t.buffering {
		t.sliceOps = append(t.sliceOps, sliceOp{charge: d})
		t.sliceCharge += d
		return
	}
	t.sched.clk.Advance(d)
}

// Do runs fn now when the thread is live, or journals it to run at the
// round commit in merge order when the thread is inside a buffered
// slice. Core routes every conductor-owned mutation (message-queue
// submission, stop requests, cross-thread wakes) through Do.
func (t *Thread) Do(fn func()) {
	if t.buffering {
		t.sliceOps = append(t.sliceOps, sliceOp{fn: fn})
		return
	}
	fn()
}

// Elapsed returns virtual time as seen by this thread: the committed
// global clock when live, or the frozen round base plus the thread's own
// charges during a buffered slice (its shard-local virtual time).
func (t *Thread) Elapsed() time.Duration {
	if t.buffering {
		return t.sliceBase + t.sliceCharge
	}
	return t.sched.clk.Elapsed()
}

// flushPen releases every penned app thread as one parallel round (a
// singleton pen takes the cheaper live dispatch). Called only at
// conductor quiescence, so the released threads are exactly the app
// threads that are ready with no kernel or system work outstanding.
func (s *Scheduler) flushPen() {
	batch := append(s.batchBuf[:0], s.pen...)
	s.pen = s.pen[:0]
	s.batchBuf = batch
	s.stats.PenFlushes++
	s.stats.Penned += uint64(len(batch))
	if len(batch) == 1 {
		s.dispatch(batch[0])
		return
	}
	s.runRound(batch)
}

// runRound executes a batch of ready domain threads as one parallel
// round and commits the journals in merge order.
func (s *Scheduler) runRound(batch []*Thread) {
	s.polling = nil
	s.roundBase = s.clk.Elapsed()
	s.stats.Rounds++
	s.stats.Slices += uint64(len(batch))

	// Partition into buckets by ordinal; runnerOrder keeps drain order
	// within and across buckets deterministic.
	if len(s.buckets) != s.nshards {
		s.buckets = make([][]*Thread, s.nshards)
	}
	order := s.runnerOrder[:0]
	for _, t := range batch {
		r := t.shard % s.nshards
		if len(s.buckets[r]) == 0 {
			order = append(order, r)
		}
		s.buckets[r] = append(s.buckets[r], t)
	}
	s.runnerOrder = order

	start := sliceWallClock()
	if len(order) == 1 {
		// One bucket (always at SetShards(1)): inline, nothing published.
		s.runBucket(0)
	} else {
		s.runBuckets()
	}
	s.stats.RoundWall += sliceWallClock().Sub(start)
	// Critical-path accounting: the round's real cost on a machine with
	// enough cores is the slowest bucket, not the bucket sum.
	var serial, critical time.Duration
	for _, r := range order {
		var sum time.Duration
		for _, t := range s.buckets[r] {
			sum += t.sliceWall
		}
		serial += sum
		if sum > critical {
			critical = sum
		}
		s.buckets[r] = s.buckets[r][:0]
	}
	s.stats.SliceWall += serial
	s.stats.RoundCritical += critical

	slices.SortStableFunc(batch, mergeOrder)
	for _, t := range batch {
		s.commitSlice(t)
	}
}

// mergeOrder is the merge rule: lowest slice-end virtual time commits first,
// FNV-1a of the thread name breaks ties, spawn id breaks hash collisions.
// No key depends on who ran the slice, on timing or on the shard count.
func mergeOrder(a, b *Thread) int {
	return cmp.Or(cmp.Compare(a.sliceBase+a.sliceCharge, b.sliceBase+b.sliceCharge),
		cmp.Compare(a.nameHash, b.nameHash), cmp.Compare(a.id, b.id))
}

// runner is one persistent helper goroutine. parked is set by the runner
// before it blocks on wake (capacity 1) and cleared by whoever ends the park:
// the conductor, who then owes a token, or the runner on finding work.
type runner struct {
	parked atomic.Bool
	wake   chan struct{}
}

// runnerHotWindow is how long a runner without a bucket keeps looking,
// yielding between looks, before it parks. Wall time, not looks, so an idle
// core costs the same on any host. kv_sharded (≈ 60 µs between rounds): 4.3k
// ops/s at 0, 4.9k at 50 µs, 5.5k at 100, 5.9k at 200, 5.7k at 400 (PR 18).
const runnerHotWindow = 100 * time.Microsecond

// claim takes the next unclaimed bucket of the published round, or returns -1.
// The word is generation<<32 | buckets<<16 | next: a stale one fails the swap.
func (s *Scheduler) claim() int {
	for {
		w := s.round.Load()
		if uint16(w) >= uint16(w>>16) {
			return -1
		}
		if s.round.CompareAndSwap(w, w+1) {
			return int(uint16(w))
		}
	}
}

// runBucket runs the i-th bucket of the round in drain order on whichever
// goroutine claimed it, and counts it finished — also when a Goexit in a
// slice (t.Fatal on a simulated thread) takes the goroutine with it.
func (s *Scheduler) runBucket(i int) {
	defer s.finished.Add(1)
	for _, t := range s.buckets[s.runnerOrder[i]] {
		s.runSlice(t)
	}
}

// runBuckets executes a round of n >= 2 buckets: publish it, wake a parked
// runner per bucket to spare, claim and run buckets like a runner until none
// is left, then wait for those the runners took.
func (s *Scheduler) runBuckets() {
	n := len(s.runnerOrder)
	s.finished.Store(0)
	s.round.Store((s.round.Load()>>32+1)<<32 | uint64(n)<<16)
	if s.runners == nil {
		s.startRunners()
	}
	for _, r := range s.runners[:min(n-1, len(s.runners))] {
		if r.parked.Load() && r.parked.CompareAndSwap(true, false) {
			r.wake <- struct{}{}
		}
	}
	for i := s.claim(); i >= 0; i = s.claim() {
		s.runBucket(i)
	}
	for int(s.finished.Load()) != n {
		runtime.Gosched()
	}
}

// startRunners starts this Run's runners at its first multi-bucket round: one
// per shard, at most GOMAXPROCS-1 (at 1 none: the conductor claims it all).
func (s *Scheduler) startRunners() {
	s.runners = []*runner{}
	s.quit.Store(false)
	for i := min(s.nshards, runtime.GOMAXPROCS(0)) - 1; i > 0; i-- {
		r := &runner{wake: make(chan struct{}, 1)}
		s.runners = append(s.runners, r)
		s.runnerWG.Add(1)
		go s.runnerLoop(r)
	}
	s.stats.RunnerStarts += uint64(len(s.runners))
}

// stopRunners ends and joins the runners; Run defers it, so none outlives it.
func (s *Scheduler) stopRunners() {
	s.quit.Store(true)
	for _, r := range s.runners {
		close(r.wake) // no round is open: nothing else can be sending
	}
	s.runnerWG.Wait()
	s.runners = nil
}

// runnerLoop is a runner's life: claim and run buckets; with none to claim
// stay hot for runnerHotWindow, then set parked, look once more and block.
func (s *Scheduler) runnerLoop(r *runner) {
	defer s.runnerWG.Done()
	hot := sliceWallClock()
	for !s.quit.Load() {
		i := s.claim()
		switch {
		case i >= 0:
			if r.parked.Load() && !r.parked.CompareAndSwap(true, false) {
				<-r.wake // the conductor ended the park first: take its token
			}
			s.runBucket(i)
			hot = sliceWallClock()
		case sliceWallClock().Sub(hot) < runnerHotWindow:
			runtime.Gosched()
		case !r.parked.Load():
			r.parked.Store(true)
		default:
			<-r.wake
			hot = sliceWallClock()
		}
	}
}

// runSlice executes one buffered timeslice of t on the calling goroutine,
// conductor or runner: switch into the thread until it parks, leave the
// journal for the conductor. iter.Pull's own annotations give the -race
// detector (and the memory model) the required happens-before edges.
func (s *Scheduler) runSlice(t *Thread) {
	t.buffering = true
	t.sliceBase = s.roundBase
	t.sliceCharge = 0
	t.sliceOps = t.sliceOps[:0]
	t.sliceSleep = -1
	t.sliceYield = false
	if s.dispatchCost > 0 {
		t.Charge(s.dispatchCost)
	}
	t.sliceOps = append(t.sliceOps, sliceOp{dispatch: true})
	t.state = StateRunning
	t.running = true
	start := sliceWallClock()
	t.next()
	t.sliceWall = sliceWallClock().Sub(start)
	t.running = false
	t.buffering = false
}

// sliceWallClock reads the host's monotonic clock for the round
// measurements (Stats.SliceWall, RoundCritical, RoundWall: the scaling
// figure) and for a runner's decision to park (runnerHotWindow). Neither
// reaches the schedule — a parked runner only leaves more buckets to the
// conductor — so the simulation stays a pure function of its seed.
func sliceWallClock() time.Time {
	//vampos:allow detclock -- round timing and runner parking only; never feeds back into the schedule
	return time.Now()
}

// commitSlice replays one slice's journal on the conductor: charges
// advance the real clock (firing any timers they reach, exactly as a
// live execution would), deferred closures run, and the thread's parked
// end-state takes effect. Timer callbacks fired mid-commit may already
// have woken this thread; the state guards keep such wakes from being
// clobbered.
func (s *Scheduler) commitSlice(t *Thread) {
	for _, op := range t.sliceOps {
		switch {
		case op.fn != nil:
			op.fn()
		case op.dispatch:
			t.dispatches++
			s.stats.Dispatches++
			if s.onDispatch != nil {
				s.onDispatch(t)
			}
		default:
			s.clk.Advance(op.charge)
		}
	}
	t.sliceOps = t.sliceOps[:0]
	if t.state == StateDone {
		if t.killed && t.OnKill != nil {
			t.OnKill()
		}
		return
	}
	switch {
	case t.sliceSleep >= 0 && t.state == StateSleeping:
		s.clk.Arm(&t.wakeTimer, t.sliceSleep, t.wake)
	case t.sliceYield && t.state == StateReady:
		s.policy.Enqueue(t)
	}
}

// fnv64a is the FNV-1a hash used by the merge rule's tiebreak.
func fnv64a(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
