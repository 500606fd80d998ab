package sched

import (
	"sort"

	"vampos/internal/clock"
)

// Inspection helpers only the tests read.

// Stopped reports whether Stop has been requested.
func (s *Scheduler) Stopped() bool { return s.stopped }

// Threads returns a snapshot of all threads ever spawned, in id order.
func (s *Scheduler) Threads() []*Thread {
	out := make([]*Thread, len(s.threads))
	copy(out, s.threads)
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Dispatches returns how many times this thread has been dispatched.
func (t *Thread) Dispatches() uint64 { return t.dispatches }

// Scheduler returns the owning scheduler.
func (t *Thread) Scheduler() *Scheduler { return t.sched }

// Clock returns the scheduler's virtual clock.
func (t *Thread) Clock() *clock.Virtual { return t.sched.clk }
