package sched

import "slices"

// Policy decides dispatch order. Implementations need not be
// goroutine-safe: the scheduler serialises all calls.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Enqueue adds a thread that just became ready. Enqueueing a thread
	// that is already queued is a no-op.
	Enqueue(t *Thread)
	// Next removes and returns the thread to dispatch, or nil when no
	// thread is queued.
	Next() *Thread
	// Hint expresses that target should run soon. Policies that do not
	// exploit dependencies ignore it.
	Hint(target *Thread)
}

// readyQueue is the FIFO of ready threads under both policies. A thread
// is in it at most once (Thread.queued). Pops advance head instead of
// reslicing, so the backing array survives a drain; a push first drops the
// dead prefix once it is at least as long as the live part, which keeps
// the array within twice the live length however long the queue stays
// non-empty (polling components never drain it).
type readyQueue struct {
	q    []*Thread
	head int
}

func (r *readyQueue) push(t *Thread) {
	if t.queued {
		return
	}
	t.queued = true
	if r.head > 0 && r.head >= len(r.q)-r.head {
		n := copy(r.q, r.q[r.head:])
		clear(r.q[n:])
		r.q, r.head = r.q[:n], 0
	}
	r.q = append(r.q, t)
}

// pop removes and returns the oldest thread, or nil when none is queued.
func (r *readyQueue) pop() *Thread {
	if r.head == len(r.q) {
		return nil
	}
	t := r.q[r.head]
	r.q[r.head] = nil
	r.head++
	t.queued = false
	return t
}

// remove takes a queued thread out of the middle.
func (r *readyQueue) remove(t *Thread) {
	for i := r.head; i < len(r.q); i++ {
		if r.q[i] == t {
			r.q = slices.Delete(r.q, i, i+1)
			t.queued = false
			return
		}
	}
}

// RoundRobin is the baseline FIFO policy: every ready thread waits its
// turn. With message-passing components this is the paper's
// VampOS-Noop configuration, where a message may sit until the queue
// rotates past every other polling component.
type RoundRobin struct{ ready readyQueue }

// NewRoundRobin returns an empty round-robin queue.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Policy.
func (*RoundRobin) Name() string { return "round-robin" }

// Enqueue implements Policy.
func (p *RoundRobin) Enqueue(t *Thread) { p.ready.push(t) }

// Next implements Policy.
func (p *RoundRobin) Next() *Thread { return p.ready.pop() }

// Hint implements Policy; round-robin ignores dependency hints.
func (*RoundRobin) Hint(*Thread) {}

// DependencyAware prefers threads named by Hint over the FIFO order. The
// VampOS runtime hints the message thread and then the receiving
// component whenever a message is pushed, so a cross-component call takes
// a constant number of dispatches instead of a full queue rotation
// (paper §V-C, the VampOS-DaS configuration).
type DependencyAware struct {
	ready readyQueue
	hints []*Thread // each has Thread.hinted set
}

// NewDependencyAware returns an empty dependency-aware queue.
func NewDependencyAware() *DependencyAware { return &DependencyAware{} }

// Name implements Policy.
func (*DependencyAware) Name() string { return "dependency-aware" }

// Enqueue implements Policy.
func (p *DependencyAware) Enqueue(t *Thread) { p.ready.push(t) }

// Hint implements Policy: target jumps ahead of the FIFO order the next
// time it is ready.
func (p *DependencyAware) Hint(target *Thread) {
	if target == nil || target.hinted {
		return
	}
	target.hinted = true
	p.hints = append(p.hints, target)
}

// Next implements Policy: the oldest hinted-and-ready thread wins,
// otherwise FIFO order applies.
func (p *DependencyAware) Next() *Thread {
	// Prune finished threads from the hint list so it cannot grow without
	// bound, then look for a hinted thread that is actually queued.
	kept := p.hints[:0]
	var pick *Thread
	for _, h := range p.hints {
		if h.State() == StateDone {
			h.hinted = false
			continue
		}
		if pick == nil && h.queued {
			pick = h
			h.hinted = false
			continue
		}
		kept = append(kept, h)
	}
	p.hints = kept
	if pick != nil {
		p.ready.remove(pick)
		return pick
	}
	return p.ready.pop()
}
