package core

import (
	"errors"
	"testing"
	"time"
)

// TestMessageCallAllocatesOnlyWhatItHandsOn: one DaS round trip of the
// smallest call keeps a pendingCall for the caller, a Ctx for the handler
// and the handler's own results; the queues, the codec scratch, the pulled
// Message and the fault check add nothing.
func TestMessageCallAllocatesOnlyWhatItHandsOn(t *testing.T) {
	allocs := -1.0
	run(t, DaSConfig(), []Component{&statelessComp{name: "proc"}}, func(c *Ctx) {
		mustCall(t, c, "proc", "pid")
		allocs = testing.AllocsPerRun(200, func() {
			if _, err := c.Call("proc", "pid"); err != nil {
				t.Fatal(err)
			}
		})
	})
	if allocs > 4 {
		t.Fatalf("%v allocations per message-passing call, want at most 4", allocs)
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
	kv := &kvComp{name: "kv", hangOn: "hang"}
	errs := make(map[string]error)
	run(t, DaSConfig(), []Component{kv}, func(c *Ctx) {
		rt := c.Runtime()
		mustCall(t, c, "kv", "put", "before", "1")
		for _, key := range []string{"hang", "queued1", "queued2"} {
			key := key
			c.Go("caller-"+key, func(c *Ctx) {
				_, errs[key] = c.Call("kv", "put", key, "x")
			})
			c.Sleep(time.Microsecond) // one caller at a time, in this order
		}
		mailbox := rt.comps["kv"].group.mailbox
		if got := mailbox.Pending(); got != 2 {
			t.Fatalf("setup: %d calls wait behind the hung one, want 2", got)
		}
		if err := rt.Inject(c, "kv", "put", "injected", "x"); err != nil {
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
		for _, key := range []string{"before", "hang", "queued1", "queued2", "injected"} {
			if _, err := c.Call("kv", "get", key); !errors.Is(err, ENOENT) {
				t.Errorf("get %s after the restart = %v, want ENOENT", key, err)
			}
		}
		mustCall(t, c, "kv", "put", "after", "2")
		if v, _ := mustCall(t, c, "kv", "get", "after").Str(0); v != "2" {
			t.Errorf("after = %q, want 2", v)
		}
	})
	for _, key := range []string{"hang", "queued1", "queued2"} {
		if errs[key] == nil {
			t.Errorf("the call in flight for %q succeeded across a full restart", key)
		}
	}
}
