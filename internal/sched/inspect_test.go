package sched

import "sort"

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
