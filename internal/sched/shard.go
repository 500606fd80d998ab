// Shard batons: deterministic parallel rounds.
//
// The paper's cost model needs cooperative dispatch, but one global baton
// serialises the whole instance. This file multiplexes the baton: when
// the ready queue holds a run of two or more domain threads (component
// workers, app threads), the scheduler executes all of them as one
// *round*. Each thread runs one buffered timeslice on the runner
// goroutine of its shard (shard ordinal mod SetShards), with every
// globally visible effect — virtual-time charges, timer registrations,
// ready-queue insertions, deferred closures handed in via Thread.Do —
// journaled instead of applied. While a round is in flight the global
// clock is frozen at the round's start; each slice sees round-start time
// plus its own charges (Thread.Elapsed), a per-shard virtual time that
// floats above the committed global watermark.
//
// When every slice has parked, the conductor commits the journals
// sequentially in the *merge order*: ascending slice-end virtual time,
// ties broken by FNV-1a of the thread name, then by spawn id. Committing
// a journal replays its charges (firing any timers they reach) and runs
// its deferred closures, so the committed global state is exactly what a
// sequential execution of the batch in merge order would have produced.
// Batch composition, slice behaviour, and merge order are all pure
// functions of deterministic scheduler state — never of which runner ran
// a slice first — so a given seed produces one canonical event order
// regardless of GOMAXPROCS *and* regardless of the shard count: shards
// only choose which OS-level goroutine executes a slice, and threads
// sharing mutable structures are given equal ordinals so they co-locate
// (and hence serialise, in drain order) at every shard count.
package sched

import (
	"sort"
	"sync"
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

// sliceOp is one journaled effect of a buffered timeslice: either a
// virtual-time charge or a deferred closure, in program order.
type sliceOp struct {
	charge time.Duration
	fn     func()
}

// SetShards enables the round engine with n shard batons (runner
// goroutines). n < 1 restores the legacy single-baton loop. Call before
// Run; the shard count is part of the schedule-defining configuration
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

// Class returns the thread's scheduling class.
func (t *Thread) Class() Class { return t.class }

// SetShard assigns the thread's shard ordinal. Threads that share
// mutable memory outside the message-passing boundary must be given the
// same ordinal: equal ordinals co-locate on one runner at every shard
// count, which is what keeps cross-shard-count behaviour identical.
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
	base := s.clk.Elapsed()
	s.stats.Rounds++
	s.stats.Slices += uint64(len(batch))

	// Partition by runner; runnerOrder keeps drain order within and
	// across buckets deterministic.
	if s.buckets == nil {
		s.buckets = make(map[int][]*Thread)
	}
	runnerOrder := s.runnerOrder[:0]
	for _, t := range batch {
		r := t.shard % s.nshards
		if _, ok := s.buckets[r]; !ok {
			runnerOrder = append(runnerOrder, r)
		}
		s.buckets[r] = append(s.buckets[r], t)
	}
	s.runnerOrder = runnerOrder

	if len(runnerOrder) == 1 {
		// Single shard active (always the case at SetShards(1)): run the
		// buffered slices inline. Identical semantics, no goroutines.
		for _, t := range s.buckets[runnerOrder[0]] {
			s.runSlice(t, base)
		}
	} else {
		var wg sync.WaitGroup
		for _, r := range runnerOrder {
			bucket := s.buckets[r]
			wg.Add(1)
			go func(bucket []*Thread) {
				defer wg.Done()
				for _, t := range bucket {
					s.runSlice(t, base)
				}
			}(bucket)
		}
		wg.Wait()
	}
	// Critical-path accounting: the round's real cost on a machine with
	// enough cores is the slowest runner bucket, not the bucket sum.
	var serial, critical time.Duration
	for _, r := range runnerOrder {
		var sum time.Duration
		for _, t := range s.buckets[r] {
			sum += t.sliceWall
		}
		serial += sum
		if sum > critical {
			critical = sum
		}
	}
	s.stats.SliceWall += serial
	s.stats.RoundCritical += critical

	for _, r := range runnerOrder {
		s.buckets[r] = s.buckets[r][:0]
		delete(s.buckets, r)
	}

	// Merge rule: lowest slice-end virtual time commits first, FNV-1a of
	// the thread name breaks ties, spawn id breaks hash collisions. Every
	// key is independent of runner timing and of the shard count.
	sort.SliceStable(batch, func(i, j int) bool {
		ti, tj := batch[i], batch[j]
		ei, ej := ti.sliceBase+ti.sliceCharge, tj.sliceBase+tj.sliceCharge
		if ei != ej {
			return ei < ej
		}
		if ti.nameHash != tj.nameHash {
			return ti.nameHash < tj.nameHash
		}
		return ti.id < tj.id
	})
	for _, t := range batch {
		s.commitSlice(t)
	}
}

// runSlice executes one buffered timeslice of t on the calling runner
// goroutine: switch into the thread until it parks, leave the journal
// for the conductor. iter.Pull's own annotations give the -race detector
// (and the memory model) the required happens-before edges.
func (s *Scheduler) runSlice(t *Thread, base time.Duration) {
	t.buffering = true
	t.sliceBase = base
	t.sliceCharge = 0
	t.sliceOps = t.sliceOps[:0]
	t.sliceSleep = -1
	t.sliceYield = false
	if s.dispatchCost > 0 {
		t.Charge(s.dispatchCost)
	}
	t.sliceOps = append(t.sliceOps, sliceOp{fn: func() {
		t.dispatches++
		s.stats.Dispatches++
		if s.onDispatch != nil {
			s.onDispatch(t)
		}
	}})
	t.state = StateRunning
	t.running = true
	start := sliceWallClock()
	t.next()
	t.sliceWall = sliceWallClock().Sub(start)
	t.running = false
	t.buffering = false
}

// sliceWallClock reads the host's monotonic clock for the round
// critical-path measurement. Measurement only: the reading feeds the
// scaling figure's parallel-capacity estimate (Stats.SliceWall and
// Stats.RoundCritical) and never influences a scheduling decision, so
// the simulation stays a pure function of its seed.
func sliceWallClock() time.Time {
	//vampos:allow detclock -- measurement-only round timing; never feeds back into the schedule
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
		if op.fn != nil {
			op.fn()
		} else {
			s.clk.Advance(op.charge)
		}
	}
	t.sliceOps = t.sliceOps[:0]
	if t.state == StateDone {
		if t.killed && t.OnKill != nil {
			t.OnKill()
		}
		if t.panicVal != nil && t.onPanic != nil {
			t.onPanic(t.panicVal)
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
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
