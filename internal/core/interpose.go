package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"vampos/internal/msg"
	"vampos/internal/sched"
	"vampos/internal/trace"
)

// pendingCall tracks one in-flight cross-component call.
type pendingCall struct {
	seq     uint64
	from    string
	fromGrp *group // nil for application callers
	to      *component
	fn      string
	args    msg.Encoded // in the caller's Ctx.args, or the injection's buf
	caller  *sched.Thread
	rec     msg.Ref // inbound log record, zero when not logged

	done     bool
	rets     msg.Encoded // the message thread's copy; its array serves every call
	errStr   string
	rebooted bool // failed because the target rebooted: retryable once
	noReply  bool // fire-and-forget injection

	// span is the call's trace span (zero when tracing is off). Callers
	// with a thread close it on wake-up; finishCall closes it for
	// fire-and-forget injections.
	span trace.SpanID
}

// injection is a fire-and-forget call together with its argument bytes:
// nobody waits on it, so it cannot borrow a caller's slot, and small
// arguments ride in the one allocation.
type injection struct {
	pc  pendingCall
	buf [32]byte
}

// pendingTable holds the calls in flight in ascending seq order: handlePush
// mints seqs in increasing order and appends. A resolved entry keeps its
// place, with a nil pc, until one of the passes in resolve drops it, so
// the slice stays within twice the live count however long a call is open.
type pendingTable struct {
	calls []pendingEntry
	dead  int
}

type pendingEntry struct {
	seq uint64
	pc  *pendingCall // nil once resolved
}

func (p *pendingTable) add(pc *pendingCall) { p.calls = append(p.calls, pendingEntry{pc.seq, pc}) }

// search returns the index of the first entry whose seq is at least seq.
func (p *pendingTable) search(seq uint64) int {
	lo, hi := 0, len(p.calls)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); p.calls[m].seq < seq {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// get returns the live call seq names, nil when it is resolved or unknown.
func (p *pendingTable) get(seq uint64) *pendingCall {
	if i := p.search(seq); i < len(p.calls) && p.calls[i].seq == seq {
		return p.calls[i].pc
	}
	return nil
}

// resolve marks pc's entry resolved. Resolved entries at the tail go at
// once, since nested calls resolve last in, first out; the rest go in one
// pass once they are at least as many as the live ones.
func (p *pendingTable) resolve(pc *pendingCall) {
	if i := p.search(pc.seq); i < len(p.calls) && p.calls[i].pc == pc {
		p.calls[i].pc = nil
		p.dead++
	}
	for n := len(p.calls); n > 0 && p.calls[n-1].pc == nil; n-- {
		p.calls, p.dead = p.calls[:n-1], p.dead-1
	}
	if p.dead > 0 && p.dead >= len(p.calls)-p.dead {
		p.calls, p.dead = slices.DeleteFunc(p.calls, func(e pendingEntry) bool { return e.pc == nil }), 0
	}
}

// each calls fn on every live call in ascending seq order, the order the
// blocked callers must wake in (it feeds the run queue, which decides what
// the log records next). fn may resolve calls: the walk resumes by seq.
func (p *pendingTable) each(fn func(*pendingCall)) {
	for i := 0; i < len(p.calls); {
		e := p.calls[i]
		if e.pc != nil {
			fn(e.pc)
		}
		i = p.search(e.seq + 1)
	}
}

// mqKind selects the message-thread work item type.
type mqKind uint8

const (
	mqPush mqKind = iota + 1
	mqReply
	mqFailure
	mqTamper // arena seal broke: taint-aware reboot of comp's group
	mqBreach // handler raised protection faults: reboot the offender
)

// mqItem is one unit of message-thread work.
type mqItem struct {
	kind   mqKind
	pc     *pendingCall
	rets   msg.Encoded   // mqReply: the results, in w's reply buffer
	w      *workerThread // mqReply: the worker that replied, nil for none
	errStr string
	grp    *group     // mqFailure, mqTamper, mqBreach
	comp   *component // mqTamper: victim; mqBreach: offender
	seq    uint64     // mqReply, mqFailure: seq in flight; mqTamper: taint watermark
	reason string     // mqFailure: panic value; mqTamper: detector name
}

// submit hands an item to the message thread. Conductor-dispatched
// contexts only: the queue and the wake both mutate conductor-owned
// state. Domain-thread code paths go through submitFrom.
func (rt *Runtime) submit(it mqItem) {
	rt.mq = append(rt.mq, it)
	if rt.msgThread != nil {
		rt.msgThread.Wake()
		rt.sch.Hint(rt.msgThread)
	}
}

// submitFrom hands an item to the message thread on behalf of th. When
// th is executing inside a buffered round slice the submission is
// journaled in th's outbox, landing on the queue at commit in the
// deterministic merge order — the seqlocked handoff at the cross-shard
// boundary.
func (rt *Runtime) submitFrom(th *sched.Thread, it mqItem) {
	if th == nil || !th.Buffering() {
		rt.submit(it)
		return
	}
	ob, _ := th.Journal().(*outbox)
	if ob == nil {
		ob = &outbox{rt: rt}
		th.SetJournal(ob)
	}
	ob.items = append(ob.items, it)
	th.Post()
}

// outbox is a thread's journal of message-queue submissions
// (sched.Journal): its buffered slice appends each item and posts one
// flush, so the commit submits the items in merge order across threads
// and in program order within the slice, with no closure per item.
type outbox struct {
	rt    *Runtime
	items []mqItem
	head  int
}

// Flush submits the oldest journaled item.
func (ob *outbox) Flush() {
	it := ob.items[ob.head]
	ob.head++
	if ob.head == len(ob.items) {
		ob.Drop()
	}
	ob.rt.submit(it)
}

// Drop forgets every item not yet flushed.
func (ob *outbox) Drop() {
	ob.items, ob.head = ob.items[:0], 0
}

// Call invokes fn on the target component. The arguments are encoded
// once, here on the caller's thread, into the context's args buffer; an
// argument the codec cannot encode fails the call before anything is
// charged, submitted or logged. In vanilla mode (and within a merged
// group) the handler then runs directly on the caller's context;
// otherwise the call becomes a message: the message thread copies the
// encoding into the target's message domain (and into its log if the
// target's policy asks), the target's thread executes the function, and
// the message thread carries the results back (logging them into the
// caller's record when the caller is a logged component) and copies them
// into the caller's slot. The results are valid until the context's next
// call.
func (c *Ctx) Call(target, fn string, args ...any) (msg.Encoded, error) {
	rt := c.rt
	tc, ok := rt.comps[target]
	if !ok {
		return nil, &UnknownComponentError{Name: target}
	}
	// During encapsulated restoration, calls leaving the rebooting group
	// are answered from the log instead of disturbing running components,
	// and so are calls into a co-member's logged functions: the co-member
	// replays those from its own log (callLogged).
	if c.replay != nil && (tc.group != c.replay.grp || rt.loggingWanted(tc, fn)) {
		return rt.feedFromLog(c, target, fn)
	}
	h, ok := tc.exports[fn]
	if !ok {
		return nil, &UnknownFunctionError{Component: target, Fn: fn}
	}
	enc, err := msg.AppendArgs(c.args[:0], args)
	if err != nil {
		return nil, err
	}
	c.args = enc
	sameGroup := c.comp != nil && c.comp.group == tc.group
	if !rt.cfg.MessagePassing || sameGroup {
		rt.stats.directCalls.Add(1)
		rt.chargeOn(c.th, costDirectCall)
		rets, err := rt.runDirect(c, &Ctx{rt: rt, comp: tc, th: c.th, replay: c.replay}, fn, h, enc)
		return results(rets), err
	}
	return rt.callMessage(c, tc, fn, enc)
}

// runDirect runs fn on sub's component without a message, inside a
// KindDirect span under from's: the path of a vanilla or intra-group
// Call and of a vanilla Inject. An armed fault fires here as it does on
// the worker, and a logged co-member call is logged (callLogged).
func (rt *Runtime) runDirect(from, sub *Ctx, fn string, h Handler, enc msg.Encoded) (msg.Encoded, error) {
	target := sub.comp.desc.Name
	if tr := rt.tracer; tr != nil {
		sub.span = tr.Begin(from.span, trace.KindDirect, from.callerName(), target, fn)
	}
	var rets msg.Encoded
	err := rt.checkFault(sub, target, fn)
	if err == nil {
		if rt.cfg.MessagePassing && from.replay == nil && rt.loggingWanted(sub.comp, fn) {
			rets, err = rt.callLogged(from, sub, sub.comp, fn, h, enc)
		} else {
			rets, err = h(sub, enc)
		}
	}
	if tr := rt.tracer; tr != nil {
		tr.EndErr(sub.span, errnoString(err))
	}
	return rets, err
}

// noResults is the empty list, which nil results transport as.
var noResults = msg.Encoded{0}

func results(rets msg.Encoded) msg.Encoded {
	if len(rets) == 0 {
		return noResults
	}
	return rets
}

// callLogged runs a direct call into a co-member's logged function and
// logs it the way a message is logged: the callee's log gets a record of
// its own, holding the callee's outbound results, and the caller's record
// gets the call's results. A merged group's replay then rebuilds each
// member from its own log and answers a member's calls into a co-member's
// logged functions from its own record. The callee's record takes the seq
// of the call the group is executing (the newest seq minted outside one),
// so it replays right before the record that made it (tailSlice).
func (rt *Runtime) callLogged(c, sub *Ctx, tc *component, fn string, h Handler, args msg.Encoded) (rets msg.Encoded, err error) {
	g, lg := tc.group, tc.domain.Log()
	seq := g.currentSeq
	if seq == 0 {
		seq = rt.nextSeq
	}
	rt.chargeOn(c.th, costLogAppend)
	rec, lerr := lg.BeginInboundEncoded(seq, fn, args)
	if lerr != nil {
		return nil, errnoFromString("ENOSPC: " + lerr.Error())
	}
	outer, outerLog := g.curRec, g.curLog
	g.curRec, g.curLog = rec, lg
	defer func() {
		if rec.Logged() {
			// The handler panicked: like a crashed message call's, its
			// half-written record is discarded.
			g.curRec, g.curLog = outer, outerLog
			lg.DropRecord(rec)
		}
	}()
	rets, err = h(sub, args)
	rets = results(rets)
	g.curRec, g.curLog = outer, outerLog
	errStr := errnoString(err)
	if s := rt.logResult(c.th, tc, fn, args, rec, g, rets, errStr); s != errStr {
		err = errnoFromString(s)
	}
	rec = msg.Ref{}
	return rets, err
}

// callMessage performs one message-passing call. When the target
// reboots mid-call it re-executes the same input once, transparently, as
// the fault model prescribes. A second failure swaps in the target's
// registered fallback version and retries on it; with no unused
// fallback the group fail-stops and the call returns ErrComponentFailed.
func (rt *Runtime) callMessage(c *Ctx, tc *component, fn string, args msg.Encoded) (msg.Encoded, error) {
	g := tc.group
	if g.failedTwice {
		return nil, fmt.Errorf("%w: %s", ErrComponentFailed, tc.desc.Name)
	}
	var fromGrp *group
	if c.comp != nil {
		fromGrp = c.comp.group
	}
	if c.call == nil {
		c.call = new(pendingCall)
	}
	pc := c.call
	for attempt := 0; ; attempt++ {
		// The call's sequence number and pending-table entry are assigned
		// by the message thread in handlePush: callers may be executing
		// on different shards concurrently, and the conductor-side queue
		// drain is the one place with a canonical order.
		*pc = pendingCall{
			from: c.callerName(), fromGrp: fromGrp,
			to: tc, fn: fn, args: args, caller: c.th, rets: pc.rets[:0],
		}
		if tr := rt.tracer; tr != nil {
			pc.span = tr.Begin(c.span, trace.KindCall, c.callerName(), tc.desc.Name, fn)
			if attempt > 0 {
				tr.Annotate(pc.span, "retry after reboot")
			}
		}
		rt.stats.calls.Add(1)
		rt.submitFrom(c.th, mqItem{kind: mqPush, pc: pc})
		for !pc.done {
			c.th.BlockCall(tc.desc.Name, fn)
		}
		if !pc.rebooted {
			if tr := rt.tracer; tr != nil {
				tr.EndErr(pc.span, pc.errStr)
			}
			return pc.rets, errnoFromString(pc.errStr)
		}
		if tr := rt.tracer; tr != nil {
			tr.EndErr(pc.span, "aborted: target rebooted")
		}
		if attempt > 0 {
			// The same input failed again: a deterministic bug. Try the
			// registered multi-version fallback before fail-stopping.
			if rt.trySwapFallback(c.th, tc) {
				continue
			}
			g.failedTwice = true
			c.th.Do(func() { rt.notifyFailStop(g) })
			return nil, fmt.Errorf("%w: %s.%s failed across reboot", ErrComponentFailed, tc.desc.Name, fn)
		}
		// Wait out the reboot, then re-submit the same input.
		for g.rebooting {
			c.th.Sleep(10 * time.Microsecond)
		}
		if g.failedTwice {
			c.th.Do(func() { rt.notifyFailStop(g) })
			return nil, fmt.Errorf("%w: %s", ErrComponentFailed, tc.desc.Name)
		}
	}
}

// Inject performs a fire-and-forget invocation: virtual IRQs (virtio
// completions) and timer-driven pumps use it. The arguments are encoded
// into the injection's own buffer, and an encode error fails the
// injection before anything happens. In vanilla mode the handler runs
// directly on the calling thread, like an interrupt borrowing the
// interrupted context, through the same runDirect as a direct Call, so
// an armed fault fires in both modes.
func (rt *Runtime) Inject(from *Ctx, target, fn string, args ...any) error {
	tc, ok := rt.comps[target]
	if !ok {
		return &UnknownComponentError{Name: target}
	}
	inj := new(injection)
	enc, err := msg.AppendArgs(inj.buf[:0], args)
	if err != nil {
		return err
	}
	rt.stats.injects.Add(1)
	th := from.th
	if th == nil {
		// IRQ contexts borrow whichever simulated thread raised the
		// interrupt, like a real interrupt borrowing the interrupted
		// context.
		th = rt.sch.Current()
	}
	if !rt.cfg.MessagePassing {
		h, ok := tc.exports[fn]
		if !ok {
			return &UnknownFunctionError{Component: target, Fn: fn}
		}
		_, err := rt.runDirect(from, &Ctx{rt: rt, comp: tc, th: th}, fn, h, enc)
		return err
	}
	pc := &inj.pc
	*pc = pendingCall{
		from: from.callerName(),
		to:   tc, fn: fn, args: enc, caller: th, noReply: true,
	}
	if tr := rt.tracer; tr != nil {
		pc.span = tr.Begin(from.span, trace.KindCall, from.callerName(), tc.desc.Name, fn)
		tr.Annotate(pc.span, "inject")
	}
	rt.submitFrom(th, mqItem{kind: mqPush, pc: pc})
	return nil
}

// loggingWanted reports whether calls to fn on c are logged.
func (rt *Runtime) loggingWanted(c *component, fn string) bool {
	return c.desc.Stateful && c.policies[fn].Class != 0
}

// msgLoop is the message thread (paper §V-D): it owns every message
// domain, performs all log writes, and turns detected failures into
// component reboots.
func (rt *Runtime) msgLoop(t *sched.Thread) {
	for !rt.stopped {
		if rt.mqHead == len(rt.mq) {
			rt.mq, rt.mqHead = rt.mq[:0], 0
			t.Block("msg idle")
			continue
		}
		it := rt.mq[rt.mqHead]
		rt.mq[rt.mqHead] = mqItem{}
		rt.mqHead++
		switch it.kind {
		case mqPush:
			rt.handlePush(it.pc)
		case mqReply:
			// A reply to a call already resolved (failed by a detection, or
			// an earlier attempt of a reused slot) is dropped uncharged.
			if pc := it.pc; pc != nil && !pc.done && pc.seq == it.seq {
				rt.handleReply(pc, it.rets, it.errStr)
			}
			if w := it.w; w != nil {
				if w.unread--; w.unread == 0 {
					w.replies = w.replies[:0]
				}
			}
		case mqFailure:
			rt.handleFailure(it.grp, it.seq, it.reason)
		case mqTamper:
			rt.handleTamper(it.grp, it.comp, it.seq, it.reason)
		case mqBreach:
			rt.handleBreach(it.grp, it.comp)
		}
	}
}

func (rt *Runtime) handlePush(pc *pendingCall) {
	g := pc.to.group
	// Sequence numbers are minted here, on the message thread, in queue
	// drain order: with callers running on parallel shards this is the
	// first point with a canonical total order, and with a single baton
	// it assigns exactly the values the caller-side increment used to.
	rt.nextSeq++
	pc.seq = rt.nextSeq
	rt.pending.add(pc)
	rt.stats.messages.Add(1)
	rt.charge(costMessagePush)
	if rt.loggingWanted(pc.to, pc.fn) {
		rt.charge(costLogAppend)
		rec, err := pc.to.domain.Log().BeginInboundEncoded(pc.seq, pc.fn, pc.args)
		if err != nil {
			rt.finishCall(pc, nil, "ENOSPC: "+err.Error())
			return
		}
		pc.rec = rec
	}
	if tr := rt.tracer; tr != nil {
		tr.Instant(pc.span, trace.KindPush, "vampos/msg", pc.fn, "to "+pc.to.desc.Name)
	}
	if err := g.mailbox.PushEncoded(&msg.Message{
		Seq: pc.seq, From: pc.from, To: pc.to.desc.Name, Fn: pc.fn,
	}, pc.args); err != nil {
		pc.to.domain.Log().DropRecord(pc.rec)
		pc.rec = msg.Ref{}
		rt.finishCall(pc, nil, "ENOSPC: "+err.Error())
		return
	}
	if w := g.worker; w != nil && !g.rebooting {
		w.t.Wake()
		rt.sch.Hint(w.t)
	}
}

func (rt *Runtime) handleReply(pc *pendingCall, rets msg.Encoded, errStr string) {
	rt.charge(costMessagePull)
	rt.finishCall(pc, rets, rt.logResult(nil, pc.to, pc.fn, pc.args, pc.rec, pc.fromGrp, rets, errStr))
}

// logResult closes a logged call, on either transport: the callee's record
// rec (zero: fn is not logged) ends with the results, and the record the
// caller's group from is executing, if any, gains them for the caller's
// own replay. Each log write is charged to th (nil: the message thread).
// It returns errStr, replaced when a domain is full.
func (rt *Runtime) logResult(th *sched.Thread, to *component, fn string, args msg.Encoded, rec msg.Ref, from *group, rets msg.Encoded, errStr string) string {
	if rec.Logged() {
		rt.chargeOn(th, costLogAppend)
		lg := to.domain.Log()
		if errStr != "" {
			// A failed call changed no component state: logging it would
			// only bloat the replay (EAGAIN accept/recv polls especially).
			lg.DropRecord(rec)
		} else {
			pol := to.policies[fn]
			sess := pol.Session.Read(to.sessions, args, rets)
			if err := lg.EndInboundEncoded(rec, sess, pol.Class, rets, errStr); logFull(err) {
				errStr = "ENOSPC: " + err.Error()
			}
			rt.maybeCompact(th, to)
		}
	}
	// Return-value logging for encapsulated restoration of the caller.
	if from != nil && from.curRec.Logged() {
		rt.chargeOn(th, costLogAppend)
		if err := from.curLog.AppendOutboundTo(from.curRec, to.desc.Name, fn, rets, errStr); logFull(err) {
			// A full caller domain poisons future restoration of the
			// caller; surface it as the call's error.
			errStr = "ENOSPC: " + err.Error()
		}
	}
	return errStr
}

// logFull reports whether a log write failed for want of domain memory.
// A stale record (its log was reset under the call) has nothing left to
// log into; the call's outcome stands.
func logFull(err error) bool { return err != nil && !errors.Is(err, msg.ErrStaleRecord) }

// finishCall resolves a pending call, copies the results into the slot of
// a caller that waits (their isolation copy) and wakes it.
func (rt *Runtime) finishCall(pc *pendingCall, rets msg.Encoded, errStr string) {
	if !pc.noReply {
		pc.rets = append(pc.rets[:0], results(rets)...)
	}
	pc.errStr = errStr
	pc.done = true
	// The pending table is conductor-owned; resolve the entry here rather
	// than on the caller's thread (which may park on another shard).
	rt.pending.resolve(pc)
	if pc.noReply || pc.caller == nil || pc.caller.State() == sched.StateDone {
		// Nobody will wake to close the call span; close it here.
		if tr := rt.tracer; tr != nil {
			tr.EndErr(pc.span, errStr)
		}
		return
	}
	pc.caller.Wake()
	rt.sch.Hint(pc.caller)
}

// maybeCompact triggers the component's log compactor once the log
// exceeds the configured shrink threshold (§V-F).
func (rt *Runtime) maybeCompact(th *sched.Thread, c *component) {
	if !rt.cfg.LogShrinkEnabled {
		return
	}
	lg := c.domain.Log()
	if lg.Len() <= rt.cfg.LogShrinkThreshold {
		return
	}
	if comp, ok := c.comp.(Compactor); ok {
		before := lg.Len()
		if err := comp.CompactLog(lg); err != nil {
			// Compaction is an optimisation: a failure only means the log
			// stays longer. Record it and continue.
			rt.stats.compactErrors.Add(1)
		}
		// Scanning and rewriting the log costs time proportional to the
		// entries touched — why very low thresholds hurt (Table IV).
		touched := before
		if after := lg.Len(); before-after > touched {
			touched = before - after
		}
		rt.chargeOn(th, time.Duration(touched)*costLogAppend)
	}
}

// feedFromLog answers an out-of-group call during replay from the logged
// outbound results (paper Fig. 3).
func (rt *Runtime) feedFromLog(c *Ctx, target, fn string) (msg.Encoded, error) {
	rs := c.replay
	if rs.idx >= len(rs.rec.Outbound) {
		de := &ReplayDivergenceError{
			Component: c.comp.desc.Name,
			GotTarget: target, GotFn: fn,
			WantTarget: "(log exhausted)", WantFn: "",
			Seq: rs.rec.Seq,
		}
		rs.diverged = de
		return nil, de
	}
	ob := rs.rec.Outbound[rs.idx]
	if ob.Target != target || ob.Fn != fn {
		de := &ReplayDivergenceError{
			Component:  c.comp.desc.Name,
			WantTarget: ob.Target, WantFn: ob.Fn,
			GotTarget: target, GotFn: fn,
			Seq: rs.rec.Seq,
		}
		rs.diverged = de
		return nil, de
	}
	rs.idx++
	return ob.Rets, errnoFromString(ob.Err)
}
