package core

import (
	"bytes"
	"fmt"

	"vampos/internal/msg"
	"vampos/internal/sched"
)

// handleFailure runs on the message thread when a component handler
// panicked: attribute the failure, fail the in-flight call (retryable),
// discard its half-written log record, and start the recovery.
func (rt *Runtime) handleFailure(g *group, seq uint64, reason string) {
	rt.stats.failures.Add(1)
	parent, fn, args := rt.detect(g.members[0], seq, "failure", reason)
	if g.failedTwice || g.rebooting {
		rt.failStop(g, "fail-stop: "+reason)
		return
	}
	rt.recoverFrom(g, fn, args, "failure: "+reason, false, parent)
}

// Reboot proactively reboots the named component (and, if merged, its
// whole group) from any application or driver thread: the software
// rejuvenation entry point. It waits for the group to go idle, performs
// the reboot, and returns once the group serves again.
func (c *Ctx) Reboot(name string) error {
	return c.rebootAs(name, "proactive")
}

// rebootAs is Reboot with an explicit RebootRecord reason, so adaptive
// rejuvenation ("rejuvenation") is distinguishable from manual proactive
// reboots ("proactive") in records, traces and oracles.
func (c *Ctx) rebootAs(name, reason string) error {
	rt := c.rt
	tc, err := c.awaitIdle(name, "reboot itself", func(tc *component) error {
		if !rt.cfg.MessagePassing {
			return fmt.Errorf("core: reboot of %q requires message passing (vanilla Unikraft can only reboot whole images)", name)
		}
		for _, m := range tc.group.members {
			if m.desc.Unrebootable {
				return fmt.Errorf("%w: %s shares state with the host", ErrUnrebootable, m.desc.Name)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rt.beginRecovery(tc.group, nil, "", reason, true, c.span)
	if !awaitRecovered(c.th, tc.group) {
		return fmt.Errorf("%w: %s", ErrComponentFailed, name)
	}
	return nil
}

// retDivergence compares a replayed call's outcome against the logged
// one, byte for byte over the encoded results: two results are the same
// iff they transport the same, which sidesteps any-typed comparison
// pitfalls (ints of two widths, []byte identity). Only a mismatch
// decodes, to print both sides.
func retDivergence(comp string, v *msg.RecordView, rets msg.Encoded, err error) *ReplayDivergenceError {
	var detail string
	if got := errnoString(err); got != v.Err {
		detail = fmt.Sprintf("logged error %q, replay returned %q", v.Err, got)
	} else if !bytes.Equal(v.Rets, rets) {
		detail = fmt.Sprintf("logged rets %v, replay produced %v", showRets(v.Rets), showRets(rets))
	} else {
		return nil
	}
	return &ReplayDivergenceError{Component: comp, WantFn: v.Fn, GotFn: v.Fn, RetMismatch: true, Seq: v.Seq, Detail: detail}
}

// showRets prints an encoding as its decoded list, or its bytes when it
// does not decode.
func showRets(e msg.Encoded) any {
	if args, err := msg.DecodeArgs(e); err == nil {
		return args
	}
	return fmt.Sprintf("% x", []byte(e))
}

// watchdogLoop is the hang detector: a component whose current call has
// been processing longer than the threshold is declared hung and
// rebooted (paper §V-A, threshold 1.0 s).
func (rt *Runtime) watchdogLoop(t *sched.Thread) {
	for !rt.stopped {
		t.Sleep(rt.cfg.WatchdogPeriod)
		if rt.cfg.MaxVirtualTime > 0 && rt.clk.Elapsed() > rt.cfg.MaxVirtualTime {
			rt.Stop()
			return
		}
		nowV := rt.clk.Elapsed()
		for _, g := range rt.groups {
			if g.rebooting || g.failedTwice || g.currentSeq == 0 {
				continue
			}
			if nowV-g.busySinceV <= rt.cfg.HangThreshold {
				continue
			}
			// Hang attribution: a group whose current handler is blocked
			// on an outstanding call into another group is a victim of
			// downstream latency, not hung itself. Skip it — the deepest
			// busy group trips the detector and only that one reboots,
			// keeping hang recovery contained to the faulty component.
			// (A true wait cycle can never form: calls only flow along
			// the dependency order, so the deepest group has no
			// outstanding downstream call and is always detected.)
			if rt.awaitingDownstream(g) {
				continue
			}
			rt.stats.hangs.Add(1)
			parent, fn, args := rt.detect(g.members[0], g.currentSeq, "hang",
				fmt.Sprintf("busy %v > threshold %v", nowV-g.busySinceV, rt.cfg.HangThreshold))
			g.currentSeq = 0
			g.curRec = msg.Ref{}
			g.curLog = nil
			// Hangs attribute to sessions the same way crashes do; the
			// stuck worker is killed either way.
			rt.recoverFrom(g, fn, args, "hang", true, parent)
			// One hang per sweep: resolving this group's inbound call wakes
			// blocked callers, but they only re-enter awaitingDownstream
			// state once scheduled. Deferring further verdicts to the next
			// sweep (one period away, well under the threshold) keeps those
			// callers from being misattributed as hung themselves.
			break
		}
	}
}

// awaitingDownstream reports whether the group's current handler has an
// outstanding call into another group still in flight. Such a group is
// blocked, not hung: the watchdog must attribute the hang to the
// deepest busy group only.
func (rt *Runtime) awaitingDownstream(g *group) bool {
	for _, e := range rt.pending.calls {
		if pc := e.pc; pc != nil && pc.fromGrp == g && pc.to.group != g {
			return true
		}
	}
	return false
}
