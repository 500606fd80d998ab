package sched

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// refRoundRobin and refDependencyAware are the policies as they were before
// the ready queue got a head index and the membership marks moved onto
// Thread: a resliced FIFO and map[*Thread]bool sets. They are the reference
// the property below compares pick order against.
type refRoundRobin struct {
	q      []*Thread
	queued map[*Thread]bool
}

func (p *refRoundRobin) Enqueue(t *Thread) {
	if p.queued[t] {
		return
	}
	p.queued[t] = true
	p.q = append(p.q, t)
}

func (p *refRoundRobin) Next() *Thread {
	if len(p.q) == 0 {
		return nil
	}
	t := p.q[0]
	p.q = p.q[1:]
	delete(p.queued, t)
	return t
}

func (*refRoundRobin) Hint(*Thread) {}
func (*refRoundRobin) Name() string { return "reference" }

type refDependencyAware struct {
	refRoundRobin
	hints  []*Thread
	hinted map[*Thread]bool
}

func (p *refDependencyAware) Hint(target *Thread) {
	if target == nil || p.hinted[target] {
		return
	}
	p.hinted[target] = true
	p.hints = append(p.hints, target)
}

func (p *refDependencyAware) Next() *Thread {
	kept := p.hints[:0]
	var pick *Thread
	for _, h := range p.hints {
		if h.State() == StateDone {
			delete(p.hinted, h)
			continue
		}
		if pick == nil && p.queued[h] {
			pick = h
			delete(p.hinted, h)
			continue
		}
		kept = append(kept, h)
	}
	p.hints = kept
	if pick == nil {
		return p.refRoundRobin.Next()
	}
	delete(p.queued, pick)
	for i, v := range p.q {
		if v == pick {
			p.q = append(p.q[:i], p.q[i+1:]...)
			break
		}
	}
	return pick
}

// tname names a picked thread in a failure message; Next returns nil for
// an empty queue.
func tname(t *Thread) string {
	if t == nil {
		return "none"
	}
	return t.name
}

// TestPoliciesPickLikeReferenceModel drives random Enqueue / Hint / Next /
// kill sequences over a small set of threads through each policy and its
// reference model and requires the same thread (or nil) from every Next.
func TestPoliciesPickLikeReferenceModel(t *testing.T) {
	cases := []struct {
		name     string
		got, ref func() Policy
	}{
		{"round-robin",
			func() Policy { return NewRoundRobin() },
			func() Policy { return &refRoundRobin{queued: map[*Thread]bool{}} }},
		{"dependency-aware",
			func() Policy { return NewDependencyAware() },
			func() Policy {
				return &refDependencyAware{
					refRoundRobin: refRoundRobin{queued: map[*Thread]bool{}},
					hinted:        map[*Thread]bool{},
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prop := func(ops []uint16) bool {
				// The reference keeps its marks in maps, so both models can
				// share the threads: only the policy under test touches the
				// flags on them.
				threads := make([]*Thread, 7)
				for i := range threads {
					threads[i] = &Thread{name: string(rune('a' + i)), state: StateReady}
				}
				got, ref := tc.got(), tc.ref()
				for i, op := range ops {
					th := threads[int(op>>2)%len(threads)]
					switch op & 3 {
					case 0:
						got.Enqueue(th)
						ref.Enqueue(th)
					case 1:
						got.Hint(th)
						ref.Hint(th)
					case 2:
						if g, r := got.Next(), ref.Next(); g != r {
							t.Logf("op %d: Next = %s, reference %s", i, tname(g), tname(r))
							return false
						}
					case 3:
						if op>>12 == 0 { // rarely: most runs keep most threads alive
							th.state = StateDone
						}
					}
				}
				for { // drain: whatever is left comes out in the same order
					g, r := got.Next(), ref.Next()
					if g != r {
						t.Logf("drain: Next = %s, reference %s", tname(g), tname(r))
						return false
					}
					if g == nil {
						return true
					}
				}
			}
			// Sequences long enough to take the queue through many
			// compactions, which quick's own 50-element slices are not.
			longOps := func(v []reflect.Value, r *rand.Rand) {
				ops := make([]uint16, r.Intn(600))
				for i := range ops {
					ops[i] = uint16(r.Intn(1 << 16))
				}
				v[0] = reflect.ValueOf(ops)
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 500, Values: longOps}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReadyQueueBacklogDoesNotGrowTheArray keeps a backlog in the queue —
// it never drains, as with polling components under round-robin — and
// pushes the head around the array many times over: FIFO order holds and
// the array stays within a small multiple of the backlog.
func TestReadyQueueBacklogDoesNotGrowTheArray(t *testing.T) {
	const backlog = 5
	threads := make([]*Thread, backlog)
	var q readyQueue
	for i := range threads {
		threads[i] = &Thread{name: string(rune('a' + i))}
		q.push(threads[i])
	}
	for i := 0; i < 10_000; i++ {
		th := q.pop()
		if want := threads[i%backlog]; th != want {
			t.Fatalf("pop %d = %s, want %s", i, tname(th), tname(want))
		}
		q.push(th)
	}
	if c := cap(q.q); c > 4*backlog {
		t.Fatalf("array grew to %d slots for a backlog of %d", c, backlog)
	}
}

func TestReadyQueueDrainThenRefill(t *testing.T) {
	a, b, c := &Thread{name: "a"}, &Thread{name: "b"}, &Thread{name: "c"}
	var q readyQueue
	for round := 0; round < 3; round++ {
		q.push(a)
		q.push(b)
		q.push(a) // already queued: no second entry
		q.push(c)
		q.remove(b)
		if b.queued {
			t.Fatal("a removed thread is still marked queued")
		}
		for _, want := range []*Thread{a, c, nil} {
			if got := q.pop(); got != want {
				t.Fatalf("round %d: pop = %v, want %v", round, got, want)
			}
		}
	}
	if c := cap(q.q); c > 4 {
		t.Fatalf("array grew to %d slots across drains of 3 threads", c)
	}
}

// TestPolicySteadyStateAllocatesNothing: once the arrays have their size, a
// message hop's worth of Enqueue / Hint / Next costs no allocation.
func TestPolicySteadyStateAllocatesNothing(t *testing.T) {
	for _, p := range []Policy{NewRoundRobin(), NewDependencyAware()} {
		threads := []*Thread{{state: StateReady}, {state: StateReady}, {state: StateReady}}
		hop := func() {
			for _, th := range threads {
				p.Enqueue(th)
			}
			p.Hint(threads[2])
			for p.Next() != nil {
			}
		}
		hop()
		if n := testing.AllocsPerRun(100, hop); n != 0 {
			t.Errorf("%s: %v allocations per drain-and-refill, want 0", p.Name(), n)
		}
	}
}
