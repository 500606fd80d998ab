package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"vampos/internal/msg"
	"vampos/internal/sched"
)

// TestMessageCallAllocatesOnlyWhatItHandsOn: one DaS round trip of the
// smallest call allocates nothing. Its results cross as bytes: encoded
// by Ret into the worker's reply buffer, copied by the message thread into
// the caller's call slot. The slot, the handler's Ctx and the reply
// buffer are reused through their owners; the queues, the codec scratch,
// the pulled Message and the fault check add nothing. Under the round
// engine the caller runs in a buffered slice that journals its push, and
// the journal adds nothing either.
func TestMessageCallAllocatesOnlyWhatItHandsOn(t *testing.T) {
	for _, shards := range []int{0, 1, 2} {
		allocs := callAllocs(t, shards, func(c *Ctx) error {
			_, err := c.Call("proc", "pid")
			return err
		})
		if allocs != 0 {
			t.Fatalf("Shards %d: %v allocations per message-passing call, want 0", shards, allocs)
		}
	}
}

// TestMessageCallWithArgsAllocatesOnlyWhatItHandsOn: arguments cross the
// hop as bytes — encoded into the caller's slot, copied into the mailbox,
// pulled into the worker's buffer, read in place — so a call with an int
// too large for the runtime's static boxes and a []byte allocates no more
// than the argumentless one: nothing.
func TestMessageCallWithArgsAllocatesOnlyWhatItHandsOn(t *testing.T) {
	payload := make([]byte, 64)
	for _, shards := range []int{0, 1, 2} {
		allocs := callAllocs(t, shards, func(c *Ctx) error {
			_, err := c.Call("proc", "echo", 4096, payload)
			return err
		})
		if allocs != 0 {
			t.Fatalf("Shards %d: %v allocations per message-passing call with arguments, want 0", shards, allocs)
		}
	}
}

// callAllocs measures the allocations of one call on a DaS runtime with
// the given shard count. At Shards 0 main makes the calls on the legacy
// baton. Otherwise two application threads on shard ordinals 0 and 1 call
// side by side, so both are penned and released together and every call
// is issued from a buffered round slice; the second caller outlasts the
// measured one, and the count includes both. Every push the callers
// journaled has reached the message thread by the end: their outboxes are
// empty.
func callAllocs(t *testing.T, shards int, call func(*Ctx) error) float64 {
	t.Helper()
	measure := func(c *Ctx) float64 {
		if err := call(c); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(200, func() {
			if err := call(c); err != nil {
				t.Fatal(err)
			}
		})
	}
	cfg := DaSConfig()
	cfg.Shards = shards
	allocs := -1.0
	var callers []*sched.Thread
	rt := run(t, cfg, []Component{&statelessComp{name: "proc"}}, func(c *Ctx) {
		if shards == 0 {
			allocs = measure(c)
			return
		}
		var measured, other bool
		callers = append(callers, c.GoShard("measured", 0, func(c *Ctx) {
			allocs = measure(c)
			measured = true
		}))
		callers = append(callers, c.GoShard("other", 1, func(c *Ctx) {
			for i := 0; i < 600; i++ {
				if err := call(c); err != nil {
					t.Fatal(err)
				}
			}
			other = true
		}))
		for !measured || !other {
			c.Sleep(time.Millisecond)
		}
	})
	if shards > 0 && rt.sch.Stats().Rounds == 0 {
		t.Fatalf("Shards %d: no round ran, so no call was issued from a buffered slice", shards)
	}
	for _, th := range callers {
		if ob, _ := th.Journal().(*outbox); ob == nil || len(ob.items) != 0 {
			t.Fatalf("Shards %d: %s journaled no push, or left %v unsubmitted", shards, th.Name(), ob)
		}
	}
	return allocs
}

// noteComp keeps the numbers its "note" calls carry, in the order they
// arrive; "sync" only answers.
type noteComp struct{ notes []int }

func (*noteComp) Describe() Descriptor {
	return Descriptor{Name: "notes", HeapPages: 4, DomainPages: 4}
}

func (*noteComp) Init(*Ctx) error { return nil }

func (n *noteComp) Exports() map[string]Handler {
	return map[string]Handler{
		"note": func(_ *Ctx, args msg.Encoded) (msg.Encoded, error) {
			v, err := args.Int(0)
			n.notes = append(n.notes, v)
			return nil, err
		},
		"sync": func(*Ctx, msg.Encoded) (msg.Encoded, error) { return nil, nil },
	}
}

// TestJournaledSubmissionsKeepProgramOrder: two application threads
// released together each inject three notes per round slice, then block
// in a call. Each slice's pushes reach the message thread in the order the
// slice made them, so every thread's notes arrive in the order it sent
// them.
func TestJournaledSubmissionsKeepProgramOrder(t *testing.T) {
	const slices = 20
	notes := &noteComp{}
	cfg := DaSConfig()
	cfg.Shards = 2
	rt := run(t, cfg, []Component{notes}, func(c *Ctx) {
		done := [2]bool{}
		for th := range done {
			c.GoShard(fmt.Sprintf("noter%d", th), th, func(c *Ctx) {
				for i := 0; i < 3*slices; i++ {
					if err := c.Runtime().Inject(c, "notes", "note", th*1000+i); err != nil {
						t.Fatal(err)
					}
					if i%3 == 2 {
						mustCall(t, c, "notes", "sync")
					}
				}
				done[th] = true
			})
		}
		for !done[0] || !done[1] {
			c.Sleep(time.Millisecond)
		}
	})
	if rt.sch.Stats().Rounds == 0 {
		t.Fatal("no round ran, so no push was journaled")
	}
	next := [2]int{0, 1000}
	for _, v := range notes.notes {
		if th := v / 1000; v != next[th] {
			t.Fatalf("noter%d's note %d arrived where %d was due: %v", th, v, next[th], notes.notes)
		}
		next[v/1000]++
	}
	if next != [2]int{3 * slices, 1000 + 3*slices} {
		t.Fatalf("notes up to %v arrived, want %d from each thread", next, 3*slices)
	}
}

// relayComp's "fwd" is logged and calls "proc" once, so the result of
// that call lands in fwd's record as its outbound result. Its compactor
// drops every completed record once the log passes the shrink threshold,
// keeping the log bounded however many calls run.
type relayComp struct{}

func (relayComp) Describe() Descriptor {
	return Descriptor{Name: "relay", Stateful: true, HeapPages: 4, DomainPages: 16}
}

func (relayComp) Init(*Ctx) error { return nil }

func (relayComp) Exports() map[string]Handler {
	return map[string]Handler{
		"fwd": func(ctx *Ctx, _ msg.Encoded) (msg.Encoded, error) {
			rets, err := ctx.Call("proc", "pid")
			if err != nil {
				return nil, err
			}
			return ctx.Ret(len(rets))
		},
	}
}

func (relayComp) LogPolicies() (*msg.Namespace, map[string]LogPolicy) {
	return nil, map[string]LogPolicy{"fwd": {Class: msg.ClassDurable}}
}

func (relayComp) CompactLog(lg *msg.Log) error {
	lg.RemoveWhere(func(msg.RecordKey) bool { return true })
	return nil
}

// TestLoggedCallAllocatesOnlyItsResults: a DaS call into a logged function
// whose handler makes one call out allocates nothing. The record takes a
// free slot of the callee's log table, the outbound result goes into that
// slot's Outbound array, and both handlers' results cross as bytes; with
// boxed result literals the call allocated 2, and 4 when each record was
// allocated on its own.
func TestLoggedCallAllocatesOnlyItsResults(t *testing.T) {
	allocs := -1.0
	cfg := DaSConfig()
	cfg.LogShrinkThreshold = 16
	var stats msg.LogStats
	run(t, cfg, []Component{relayComp{}, &statelessComp{name: "proc"}}, func(c *Ctx) {
		for i := 0; i < 3*cfg.LogShrinkThreshold; i++ {
			mustCall(t, c, "relay", "fwd")
		}
		allocs = testing.AllocsPerRun(200, func() {
			if _, err := c.Call("relay", "fwd"); err != nil {
				t.Fatal(err)
			}
		})
		stats = c.rt.comps["relay"].domain.Log().Stats()
	})
	if want := uint64(3*cfg.LogShrinkThreshold + 201); stats.Appended != want || stats.Compacted == 0 {
		t.Fatalf("log stats %+v, want %d appended and some compacted", stats, want)
	}
	if allocs != 0 {
		t.Fatalf("%v allocations per logged call with one call out, want 0", allocs)
	}
}

// TestInjectAllocatesOnlyItsCall: an injection's small arguments ride in
// the one allocation that carries the call to the message thread.
func TestInjectAllocatesOnlyItsCall(t *testing.T) {
	allocs := -1.0
	irq := []byte("irq")
	run(t, DaSConfig(), []Component{&statelessComp{name: "proc"}}, func(c *Ctx) {
		inject := func() {
			if err := c.rt.Inject(c, "proc", "echo", 7, irq); err != nil {
				t.Fatal(err)
			}
		}
		// Grow the message queue past the measured burst first.
		for i := 0; i < 120; i++ {
			inject()
		}
		c.Sleep(time.Millisecond)
		allocs = testing.AllocsPerRun(100, inject)
		c.Sleep(time.Millisecond)
	})
	if allocs != 1 {
		t.Fatalf("%v allocations per injection, want 1", allocs)
	}
}

// TestUnencodableArgumentFailsBeforeTheHop: an argument the codec cannot
// encode fails Call and Inject with the codec's error in every
// configuration, before anything is charged, submitted or logged. It used
// to reach a DaS caller as ENOSPC from the message thread, and a vanilla
// handler as the raw value.
func TestUnencodableArgumentFailsBeforeTheHop(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"das", DaSConfig()}, {"vanilla", VanillaConfig()}} {
		t.Run(tc.name, func(t *testing.T) {
			run(t, tc.cfg, []Component{&kvComp{name: "kv"}}, func(c *Ctx) {
				mustCall(t, c, "kv", "put", 1, "1")
				lg := c.rt.comps["kv"].domain.Log()
				at, stats, logged := c.Elapsed(), c.rt.Stats(), lg.Stats().Appended
				for what, err := range map[string]error{
					"Call":   func() error { _, err := c.Call("kv", "put", 2, struct{}{}); return err }(),
					"Inject": c.rt.Inject(c, "kv", "put", 3, float32(1)),
				} {
					if err == nil || !strings.Contains(err.Error(), "unsupported kind") || strings.Contains(err.Error(), "ENOSPC") {
						t.Errorf("%s with an unencodable argument: %v, want the codec's error", what, err)
					}
				}
				if got := c.Elapsed(); got != at {
					t.Errorf("the failed calls moved the virtual clock from %v to %v", at, got)
				}
				c.Sleep(time.Millisecond) // anything submitted would land now
				if got := c.rt.Stats(); got != stats {
					t.Errorf("runtime counters moved: %+v, then %+v", stats, got)
				}
				if got := lg.Stats().Appended; got != logged {
					t.Errorf("%d log records appended by the failed calls", got-logged)
				}
			})
		})
	}
}

// lateReplier's "echo" crashes on its first execution and answers on the
// retry. With late set, the retry first queues two replies to the crashed
// attempt on the message thread, the way a late reply would arrive: one
// on the caller's call slot, which the retry has since reused, and one
// with no call at all.
type lateReplier struct {
	caller  *Ctx
	late    bool
	crashed uint64 // seq of the crashed attempt
}

func (l *lateReplier) Describe() Descriptor {
	return Descriptor{Name: "late", HeapPages: 4, DomainPages: 4}
}

func (l *lateReplier) Init(*Ctx) error { return nil }

func (l *lateReplier) Exports() map[string]Handler {
	return map[string]Handler{
		"echo": func(ctx *Ctx, args msg.Encoded) (msg.Encoded, error) {
			if l.crashed == 0 {
				l.crashed = ctx.comp.group.currentSeq
				panic("injected crash in echo")
			}
			if l.late {
				// Queued without a wake: the message thread meets them just
				// before this attempt's own reply, so a dropped reply must
				// leave the schedule and the clock exactly as they were.
				rt := ctx.rt
				rt.mq = append(rt.mq,
					mqItem{kind: mqReply, pc: l.caller.call, seq: l.crashed, rets: msg.Encoded{1, 7, 4, 'l', 'a', 't', 'e'}},
					mqItem{kind: mqReply, seq: l.crashed, rets: msg.Encoded{1, 7, 6, 'o', 'r', 'p', 'h', 'a', 'n'}})
			}
			s, err := args.Str(0)
			if err != nil {
				return nil, err
			}
			return ctx.Ret(s)
		},
	}
}

// TestLateReplyToReusedSlotIsDropped: a call that crashed is retried on
// the same call slot, under a new seq. A reply to the crashed attempt, or
// to no call at all, must neither resolve the retry nor charge anything:
// the retried call completes with its own reply, at the same virtual time
// as a run without the late replies.
func TestLateReplyToReusedSlotIsDropped(t *testing.T) {
	callOnce := func(late bool) (string, time.Duration) {
		l := &lateReplier{late: late}
		var got string
		var at time.Duration
		rt := run(t, DaSConfig(), []Component{l}, func(c *Ctx) {
			l.caller = c
			got, _ = mustCall(t, c, "late", "echo", "own").Str(0)
			at = c.Elapsed()
		})
		if n := len(rt.Reboots()); n != 1 {
			t.Fatalf("late=%v: %d reboots, want 1", late, n)
		}
		if l.caller.call.seq == l.crashed {
			t.Fatalf("late=%v: the retry kept seq %d of the crashed attempt", late, l.crashed)
		}
		return got, at
	}
	wantRets, wantAt := callOnce(false)
	gotRets, gotAt := callOnce(true)
	if wantRets != "own" || gotRets != "own" {
		t.Fatalf("retried call returned %q (%q without late replies), want %q", gotRets, wantRets, "own")
	}
	if gotAt != wantAt {
		t.Fatalf("the late replies moved the virtual clock: call done at %v, %v without them", gotAt, wantAt)
	}
}

func TestErrnoRehydratesWithoutAllocating(t *testing.T) {
	for _, e := range []Errno{EAGAIN, ENOENT, EIO} {
		err := errnoFromString(errnoString(e))
		if err != e || !errors.Is(err, e) {
			t.Fatalf("%s came back as %#v", e, err)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = errnoFromString("EAGAIN") }); n != 0 {
		t.Fatalf("%v allocations to rehydrate EAGAIN, want 0", n)
	}
	// Anything else still travels, as an Errno of its text.
	if err := errnoFromString("ENOSPC: domain full"); err != Errno("ENOSPC: domain full") {
		t.Fatalf("undeclared errno came back as %#v", err)
	}
	if errnoFromString("") != nil {
		t.Fatal("the empty string is no error")
	}
}

// TestFullRestartWithWorkQueued restarts the image while a handler hangs,
// two calls wait behind it in the mailbox (whose head has moved past the
// hung one) and an injection sits on the message thread's queue: all of it
// dies with the image, none of it runs afterwards, and both queues serve
// the next calls from a clean state.
func TestFullRestartWithWorkQueued(t *testing.T) {
	key := map[string]int{"before": 1, "after": 2, "queued1": 3, "queued2": 4, "injected": 5, "hang": 7}
	kv := &kvComp{name: "kv", hangOn: key["hang"]}
	errs := make(map[string]error)
	run(t, DaSConfig(), []Component{kv}, func(c *Ctx) {
		rt := c.Runtime()
		mustCall(t, c, "kv", "put", key["before"], "1")
		for _, name := range []string{"hang", "queued1", "queued2"} {
			name := name
			c.Go("caller-"+name, func(c *Ctx) {
				_, errs[name] = c.Call("kv", "put", key[name], "x")
			})
			c.Sleep(time.Microsecond) // one caller at a time, in this order
		}
		mailbox := rt.comps["kv"].group.mailbox
		if got := mailbox.Pending(); got != 2 {
			t.Fatalf("setup: %d calls wait behind the hung one, want 2", got)
		}
		if err := rt.Inject(c, "kv", "put", key["injected"], "x"); err != nil {
			t.Fatal(err)
		}
		if len(rt.mq) == rt.mqHead {
			t.Fatal("setup: the injection is not on the message queue")
		}

		if err := rt.FullRestart(c); err != nil {
			t.Fatalf("FullRestart: %v", err)
		}
		if mailbox.Pending() != 0 || len(rt.mq) != rt.mqHead {
			t.Fatalf("after restart: %d in the mailbox, %d on the message queue",
				mailbox.Pending(), len(rt.mq)-rt.mqHead)
		}
		c.Sleep(time.Millisecond) // the failed callers run and finish
		for _, name := range []string{"before", "hang", "queued1", "queued2", "injected"} {
			if _, err := c.Call("kv", "get", key[name]); !errors.Is(err, ENOENT) {
				t.Errorf("get %s after the restart = %v, want ENOENT", name, err)
			}
		}
		mustCall(t, c, "kv", "put", key["after"], "2")
		if v, _ := mustCall(t, c, "kv", "get", key["after"]).Str(0); v != "2" {
			t.Errorf("after = %q, want 2", v)
		}
	})
	for _, name := range []string{"hang", "queued1", "queued2"} {
		if errs[name] == nil {
			t.Errorf("the call in flight for %q succeeded across a full restart", name)
		}
	}
}

// stateComp's "get" returns the component's own state as its result.
type stateComp struct{ state []byte }

func (*stateComp) Describe() Descriptor {
	return Descriptor{Name: "state", HeapPages: 4, DomainPages: 4}
}

func (*stateComp) Init(*Ctx) error { return nil }

func (s *stateComp) Exports() map[string]Handler {
	return map[string]Handler{
		"get": func(ctx *Ctx, _ msg.Encoded) (msg.Encoded, error) { return ctx.Ret(s.state) },
	}
}

// TestResultsDoNotAliasTheCallee: a handler that returns a slice of its
// own state hands the caller bytes, not the slice. Whatever the caller
// does to its results — the bytes read out of them, the encoding itself —
// the callee's state stays as it was, and so does the next reply.
func TestResultsDoNotAliasTheCallee(t *testing.T) {
	s := &stateComp{state: []byte("callee-state")}
	run(t, DaSConfig(), []Component{s}, func(c *Ctx) {
		rets := mustCall(t, c, "state", "get")
		b, err := rets.Bytes(0)
		if err != nil {
			t.Fatal(err)
		}
		copy(b, "XXXXXX")
		for i := range rets {
			rets[i] = 0xFF
		}
		again, err := mustCall(t, c, "state", "get").Bytes(0)
		if err != nil || string(again) != "callee-state" {
			t.Fatalf("second call returned %q, %v", again, err)
		}
	})
	if string(s.state) != "callee-state" {
		t.Fatalf("callee state is %q after the caller wrote its results", s.state)
	}
}

// TestRetEncodesAsEncodeArgs: whatever list a handler hands Ret, the
// bytes are msg.EncodeArgs's for the same list — the empty list included,
// through one context's reused buffer — so results log, compare and
// decode exactly as boxed results did.
func TestRetEncodesAsEncodeArgs(t *testing.T) {
	var ctx Ctx
	f := func(i int, i64 int64, u uint64, fl float64, s string, b []byte, ok bool, pick uint32) bool {
		all := []any{nil, ok, i, i64, u, fl, s, b}
		list := make(msg.Args, pick%10)
		for j := range list {
			list[j] = all[(pick>>4+uint32(j)*5)%uint32(len(all))]
		}
		want, err := msg.EncodeArgs(list)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ctx.Ret(list...)
		return err == nil && bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Ret(3, []int{1}); err == nil || !strings.Contains(err.Error(), "unsupported kind") {
		t.Fatalf("Ret of an unencodable result: %v, want the codec's error", err)
	}
}
