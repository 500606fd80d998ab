package core

import (
	"fmt"

	"vampos/internal/mem"
	"vampos/internal/msg"
	"vampos/internal/sched"
	"vampos/internal/trace"
)

// workerThread runs one group's component code: init requests during
// boot, restoration after a reboot, then the serve loop that pulls
// messages from the group mailbox.
type workerThread struct {
	t         *sched.Thread
	g         *group
	initQueue []*component
	initDone  map[*component]bool
	initErr   map[*component]error
	restore   bool
	// ctx is the context every message handler on this thread runs on,
	// reset per message: no handler keeps its ctx past returning.
	ctx Ctx
	// args is the buffer each message's arguments are pulled into, for
	// the same reason reused: no handler keeps its args past returning.
	args msg.Encoded
	// replies holds the results of the unread replies the message thread
	// has not taken; it rewinds the buffer once it has taken them all. A
	// handler blocked in a call meanwhile writes past the end only.
	replies msg.Encoded
	unread  int
}

// spawnWorker creates (or re-creates, to run a recovery) a group's thread.
func (rt *Runtime) spawnWorker(g *group, restore bool) {
	w := &workerThread{g: g, restore: restore}
	if !restore {
		// Init requests only reach boot-time workers (Boot, FullRestart).
		w.initDone = make(map[*component]bool)
		w.initErr = make(map[*component]error)
	}
	g.worker = w
	pkru := mem.Allow(g.key).WithRead(keyDomains)
	w.t = rt.sch.Spawn("comp/"+g.name, pkru, func(t *sched.Thread) {
		rt.workerMain(t, g, w)
	})
	// Workers are domain threads: under the sharded-baton engine their
	// timeslices may run inside buffered parallel rounds, on the runner
	// that owns the group's shard ordinal.
	w.t.SetClass(sched.ClassDomain)
	w.t.SetShard(g.shard)
}

func (rt *Runtime) workerMain(t *sched.Thread, g *group, w *workerThread) {
	if w.restore && !rt.recoverGroup(t, g) {
		return // the group fail-stopped
	}
	pollMode := rt.cfg.Policy == PolicyRoundRobin
	for !rt.stopped {
		if len(w.initQueue) > 0 {
			c := w.initQueue[0]
			w.initQueue = w.initQueue[1:]
			ctx := &Ctx{rt: rt, comp: c, th: t}
			err := c.comp.Init(ctx)
			w.initDone[c] = true
			w.initErr[c] = err
			if rt.bootThread != nil {
				boot := rt.bootThread
				t.Do(func() { boot.Wake() })
			}
			continue
		}
		m, args, ok := g.mailbox.PullEncoded(w.args)
		if !ok {
			if pollMode {
				t.Yield()
			} else {
				t.Block("mailbox empty")
			}
			continue
		}
		w.args = args
		t.Charge(costMessagePull)
		if !rt.execMessage(w, m, args) {
			return // component crashed; the message thread takes over
		}
		// The call completed and its reply was submitted: the group is
		// quiescent. Verify arena seals first — tampering detected now
		// must not be baked into a fresh checkpoint image at this same
		// quiescent point.
		if rt.maybeDefense(t, g) {
			return // tamper detected; the message thread takes over
		}
		rt.maybeCheckpoint(g)
	}
}

// execMessage runs one inbound call and submits its reply. It returns
// false when the handler panicked and the worker thread must die.
func (rt *Runtime) execMessage(w *workerThread, m msg.Message, args msg.Encoded) bool {
	t, g := w.t, w.g
	c := g.member(m.To)
	if c == nil {
		// Message addressed to a component not in this group: domain
		// bookkeeping is broken, which only a core bug can cause.
		panic(fmt.Sprintf("core: group %s received message for %q", g.name, m.To))
	}
	pc := rt.pending.get(m.Seq)
	h, ok := c.exports[m.Fn]
	if !ok {
		rt.submitFrom(t, mqItem{kind: mqReply, pc: pc, seq: m.Seq, errStr: errnoString(&UnknownFunctionError{Component: m.To, Fn: m.Fn})})
		return true
	}
	g.currentSeq = m.Seq
	g.busySinceV = t.Elapsed()
	if pc != nil && pc.rec.Logged() {
		g.curRec = pc.rec
		g.curLog = c.domain.Log()
	}
	ctx := &w.ctx
	*ctx = Ctx{rt: rt, comp: c, th: t, call: ctx.call, args: ctx.args, scratch: ctx.scratch, rets: w.replies[len(w.replies):]}
	var parent trace.SpanID
	if pc != nil {
		parent = pc.span
	}
	if tr := rt.tracer; tr != nil {
		tr.Instant(parent, trace.KindPull, c.desc.Name, m.Fn, "from "+m.From)
		ctx.span = tr.Begin(parent, trace.KindExec, c.desc.Name, "", m.Fn)
	}
	var faultsBefore uint64
	watchFaults := rt.cfg.Defense.Enabled && rt.cfg.Defense.RebootOnFault
	if watchFaults {
		// Per-accessor counting: under parallel rounds the global fault
		// counter can move on another shard mid-handler, which would
		// attribute a neighbour's PKRU misuse to this component.
		faultsBefore = t.Accessor().Faults()
	}
	rets, err, pv, panicked := rt.invokeChecked(h, ctx, c.desc.Name, m.Fn, args)
	g.currentSeq = 0
	g.curRec = msg.Ref{}
	g.curLog = nil
	if panicked {
		reason := fmt.Sprint(pv)
		if tr := rt.tracer; tr != nil {
			// The crash instant hangs off the exec span; the span itself
			// stays open — the crash truncated it, and the snapshot marks
			// it unfinished.
			tr.Instant(ctx.span, trace.KindCrash, c.desc.Name, m.Fn, reason)
		}
		rt.submitFrom(t, mqItem{kind: mqFailure, grp: g, seq: m.Seq, reason: reason})
		return false
	}
	if tr := rt.tracer; tr != nil {
		tr.EndErr(ctx.span, errnoString(err))
	}
	if c.tracker != nil {
		c.tracker.NoteCall()
	}
	c.lastExecSeq = m.Seq
	c.calls.Add(1)
	if err != nil {
		c.errs.Add(1)
	}
	c.busyV.Add(int64(t.Elapsed() - g.busySinceV))
	// Ret encoded the results at the buffer's tail, so this append moves
	// them at most; results from anywhere else are copied.
	n := len(w.replies)
	w.replies = append(w.replies, rets...)
	w.unread++
	rt.submitFrom(t, mqItem{kind: mqReply, pc: pc, seq: m.Seq, rets: w.replies[n:], w: w, errStr: errnoString(err)})
	if watchFaults && t.Accessor().Faults() > faultsBefore {
		// The handler raised protection faults: a PKRU-misuse attempt,
		// confined by interposition but evidence of compromise. The reply
		// is already queued (callers observe the EFAULT, not the reboot);
		// the message thread reboots the offender into a re-randomized
		// incarnation after delivering it.
		rt.submitFrom(t, mqItem{kind: mqBreach, grp: g, comp: c})
		return false
	}
	return true
}

// invokeChecked fires any armed fault for the invocation, then invokes.
// An errno fault short-circuits the handler: the call returns the
// injected error without executing.
func (rt *Runtime) invokeChecked(h Handler, ctx *Ctx, component, fn string, args msg.Encoded) (rets msg.Encoded, err error, pv any, panicked bool) {
	defer capturePanic(&pv, &panicked)
	if err = rt.checkFault(ctx, component, fn); err == nil {
		rets, err = h(ctx, args)
	}
	return results(rets), err, nil, false
}

// invoke runs a handler, converting panics — crashes, nil dereferences,
// protection faults turned into panics — into a captured failure, while
// letting the scheduler's kill-unwind pass through.
func (rt *Runtime) invoke(h Handler, ctx *Ctx, args msg.Encoded) (rets msg.Encoded, err error, pv any, panicked bool) {
	defer capturePanic(&pv, &panicked)
	rets, err = h(ctx, args)
	return results(rets), err, nil, false
}

// capturePanic is the deferred half of invoke and invokeChecked.
func capturePanic(pv *any, panicked *bool) {
	if r := recover(); r != nil {
		if sched.IsKill(r) {
			panic(r)
		}
		*pv, *panicked = r, true
	}
}
