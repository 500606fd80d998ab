package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"vampos/internal/defense"
	"vampos/internal/mem"
	"vampos/internal/msg"
	"vampos/internal/sched"
	"vampos/internal/trace"
)

// This file is the recovery pipeline. Component reboot, rejuvenation,
// taint-aware rollback and session microreboot are one staged function,
//
//	quiesce → select image → restore → select replay slice → replay → resume → record
//
// whose stages are selected by the fields of one recovery value; detection
// (reboot.go, defense.go) and the proactive entry points only begin one.

// recovery is one recovery of a group, from begin to its record. The group
// holds the one in flight (and keeps the last one after); a proactive
// caller keeps its own pointer to read the outcome.
type recovery struct {
	reason string
	// comp and session name the session a rung-1 recovery rebuilds: no
	// image, evict instead, replay that session's records. Zero at rung 2,
	// which is also how an escalated rung-1 recovery ends up.
	comp    *component
	session msg.SessionID
	// startV/startW open the latency measurement. Escalation keeps them,
	// so rung-2 latency honestly includes the failed rung-1 attempt.
	startV time.Duration
	startW time.Time
	// span is the KindReboot or KindMicroreboot trace span, phase its
	// open KindPhase child (zero when tracing is off).
	span, phase trace.SpanID
	// pass is what one run of the stages decided and counted; a retry
	// starts it over.
	pass recoveryPass
}

type recoveryPass struct {
	// rec accumulates the RebootRecord: entries replayed, pages restored,
	// images quarantined, the earliest watermark honoured (zero: no member
	// was tainted) and the epoch seq its member landed on.
	rec     RebootRecord
	tainted []*component
	// archived are the record views re-entering replay because the live
	// log no longer holds them (taint rollback only).
	archived []replayItem
	// slice is what the replay stage was handed: its seq range and how many
	// records came from the live log's retained tail, from the defense
	// archive, and from one session's slice.
	slice struct {
		first, last            uint64
		live, archive, session int
	}
}

// imageChoice is where a member's arena came from at its last restore.
type imageChoice uint8

const (
	imageNone         imageChoice = iota // never restored, or rebuilt at the session rung
	imageCold                            // scrubbed and re-initialised
	imageLatest                          // the component's newest checkpoint
	imagePreWatermark                    // the newest image predating a taint watermark
)

type replayItem struct {
	c *component
	v msg.RecordView
}

// beginRecovery transitions a group into restoration: rung 1 when comp
// and session name a session, rung 2 otherwise. The old worker (if still
// alive) is killed on request; a fresh worker thread runs the stages
// before serving the mailbox again, so queued requests are delayed, not
// lost. parent anchors the trace span in the causal chain that triggered
// the recovery (zero for an unanchored root).
func (rt *Runtime) beginRecovery(g *group, comp *component, session msg.SessionID, reason string, killWorker bool, parent trace.SpanID) *recovery {
	g.rebooting = true
	r := &recovery{reason: reason, comp: comp, session: session, startV: rt.clk.Elapsed()}
	//vampos:allow detclock -- recovery latency is reported in wall time alongside virtual time (RebootRecord/MicrorebootRecord.WallDuration); the reading never feeds back into the simulation
	r.startW = time.Now()
	g.rec = r
	// The span opens at the same clock reading startV captured, so the
	// trace-derived duration and the record agree exactly.
	r.open(rt.tracer, g, parent)
	if killWorker && g.worker != nil && g.worker.t.State() != sched.StateDone {
		g.worker.t.Kill()
	}
	rt.spawnWorker(g, true)
	return r
}

// recoverFrom begins the recovery a detected failure calls for: rung 1
// when the failed call is attributable to one session, rung 2 (the
// component reboot) otherwise. Recoveries never stack: every caller has
// checked that the group is neither recovering nor dead.
func (rt *Runtime) recoverFrom(g *group, fn string, args msg.Encoded, reason string, killWorker bool, parent trace.SpanID) {
	c, session := rt.attributeSession(g, fn, args)
	rt.beginRecovery(g, c, session, reason, killWorker, parent)
}

// open starts the recovery's trace span under parent, quiescence first.
func (r *recovery) open(tr *trace.Recorder, g *group, parent trace.SpanID) {
	if r.comp != nil {
		r.span = tr.Begin(parent, trace.KindMicroreboot, r.comp.desc.Name, "", string(r.session))
	} else {
		r.span = tr.Begin(parent, trace.KindReboot, g.name, "", r.reason)
	}
	r.phase = tr.Begin(r.span, trace.KindPhase, g.name, "", trace.PhaseQuiesce)
}

// enter is the one phase transition: it ends the current phase, with
// detail as its outcome when the phase failed, and opens the named one
// (none for ""). Every stage boundary and every way out of the stages
// goes through it, so closed phases always tile the recovery's span.
func (r *recovery) enter(tr *trace.Recorder, g *group, phase, detail string) {
	tr.EndErr(r.phase, detail)
	r.phase = 0
	if phase != "" {
		r.phase = tr.Begin(r.span, trace.KindPhase, g.name, "", phase)
	}
}

// end closes the recovery's trace: the open phase, if any, with
// phaseDetail, then the span with outcome, at one clock reading.
func (r *recovery) end(tr *trace.Recorder, g *group, phaseDetail, outcome string) {
	r.enter(tr, g, "", phaseDetail)
	tr.EndErr(r.span, outcome)
	r.span = 0
}

// failStop declares the group dead (§II-B: a failure while restoring, or
// a restore that itself failed, is a deterministic fault): the recovery
// in flight ends with why, every caller gets a permanent failure, and the
// graceful-termination handler runs.
func (rt *Runtime) failStop(g *group, why string) {
	g.failedTwice = true
	g.rebooting = false
	if g.rec != nil {
		g.rec.end(rt.tracer, g, why, why)
	}
	rt.pending.each(func(pc *pendingCall) {
		if pc.to.group == g {
			rt.finishCall(pc, nil, errnoString(ErrComponentFailed))
		}
	})
	rt.notifyFailStop(g)
}

// detect is the prologue every detection shares. The event is attributed
// to the component the in-flight call seq addresses (victim when there is
// none), counted, and left in the trace as a KindDetect instant under
// that call's span; the call itself fails retryably with its half-written
// log record discarded. It returns the span the recovery hangs off and
// the failed call, for session attribution.
func (rt *Runtime) detect(victim *component, seq uint64, event, detail string) (parent trace.SpanID, fn string, args msg.Encoded) {
	pc := rt.pending.get(seq)
	if pc != nil {
		victim, parent = pc.to, pc.span
	}
	victim.failures.Add(1)
	rt.tracer.Instant(parent, trace.KindDetect, victim.desc.Name, event, detail)
	if pc != nil && !pc.done {
		fn, args = pc.fn, pc.args
		victim.domain.Log().DropRecord(pc.rec)
		pc.rec = msg.Ref{}
		pc.rebooted = true
		rt.finishCall(pc, nil, "")
	}
	return parent, fn, args
}

// awaitRecovered parks th until the group's recovery in flight (if any)
// is over and reports whether the group survived it.
func awaitRecovered(th *sched.Thread, g *group) bool {
	for g.rebooting {
		th.Sleep(10 * time.Microsecond)
	}
	return !g.failedTwice
}

// awaitIdle is the shared front of Reboot, MicrorebootSession and
// Checkpoint: look the component up, check the caller's preconditions,
// refuse a caller inside the group (self completes "component %q cannot
// …") and wait until the group is between requests. Cooperative scheduling
// makes what the caller does next race-free: nothing runs in between. A
// dead group is refused whenever it died — before the call or, a failed
// restore clearing rebooting, while the caller waited.
func (c *Ctx) awaitIdle(name, self string, pre func(*component) error) (*component, error) {
	tc, ok := c.rt.comps[name]
	if !ok {
		return nil, &UnknownComponentError{Name: name}
	}
	if err := pre(tc); err != nil {
		return nil, err
	}
	g := tc.group
	if c.comp != nil && c.comp.group == g {
		return nil, fmt.Errorf("core: component %q cannot %s", name, self)
	}
	for !g.failedTwice && (g.rebooting || g.currentSeq != 0) {
		c.th.Sleep(10 * time.Microsecond)
	}
	if g.failedTwice {
		return nil, fmt.Errorf("%w: %s", ErrComponentFailed, name)
	}
	return tc, nil
}

// recoverGroup runs the group's pending recovery on its fresh worker
// thread and reports whether the group serves again.
func (rt *Runtime) recoverGroup(t *sched.Thread, g *group) bool {
	r := g.rec
	for {
		err := rt.runStages(t, g, r)
		if err == nil {
			break
		}
		if r.comp != nil {
			// Rung 1 failed: rung 2 follows on this same worker.
			rt.escalate(g, r, err)
			continue
		}
		r.enter(rt.tracer, g, "", err.Error())
		// Taint-aware retry: a replay divergence is a corruption
		// detection, not (yet) a deterministic fault. Stamp the
		// diverging record's seq as the taint watermark and restore
		// again — the rollback lands strictly before it. Each retry
		// tightens the watermark strictly, so the loop terminates.
		if de, ok := err.(*ReplayDivergenceError); ok && rt.stampDivergenceTaint(g, de) {
			continue
		}
		rt.stats.failedRestores.Add(1)
		// The flag flips are polled by blocked callers on other shards,
		// and failing the pending calls wakes them and mutates the
		// conductor-owned pending table; from a round slice all of it must
		// land at commit, in merge order.
		t.Do(func() { rt.failStop(g, "restore failed: "+err.Error()) })
		return false
	}
	// Callers blocked on the recovery poll g.rebooting from their own
	// slices: the clear must commit in merge order, not leak mid-round
	// to whichever threads happen to share this worker's runner.
	t.Do(func() { g.rebooting = false })
	return true
}

// escalate abandons a failed rung-1 attempt and turns the same recovery
// into the component reboot (rung 2) that follows: its trace span becomes
// a child of the escalated microreboot span, preserving the causal chain.
func (rt *Runtime) escalate(g *group, r *recovery, cause error) {
	rt.stats.microEscalations.Add(1)
	r.reason = fmt.Sprintf("%s (escalated from session %s: %v)", r.reason, r.session, cause)
	r.comp, r.session = nil, ""
	micro := r.span
	r.end(rt.tracer, g, "", "escalated: "+cause.Error())
	r.open(rt.tracer, g, micro)
}

// runStages is one pass of the pipeline on the group's new worker thread.
// The worker's first dispatch ends quiescence; from there each stage is a
// phase of the trace. The group mailbox is untouched throughout —
// requests queued during the recovery are delayed, not lost (the Table V
// property).
func (rt *Runtime) runStages(t *sched.Thread, g *group, r *recovery) error {
	tr := rt.tracer
	r.pass = recoveryPass{}
	var items []replayItem
	var err error
	if c := r.comp; c != nil {
		// Session rung. No image: the component never went down. Remove the
		// faulted session's live state, then replay its surviving records
		// (opener, durables, open transient tail — exactly what the
		// session-aware shrinker preserves).
		r.enter(tr, g, trace.PhaseEvict, "")
		ev, ok := c.comp.(SessionEvictor)
		if !ok {
			return fmt.Errorf("core: %q lost its session evictor", c.desc.Name)
		}
		c.imageFrom = imageNone
		n, ok := c.sessions.Parse(r.session)
		if !ok {
			return fmt.Errorf("core: evict %s/%s: not a session of its namespace", c.desc.Name, r.session)
		}
		if err = ev.EvictSession(&Ctx{rt: rt, comp: c, th: t, span: r.phase}, n); err != nil {
			return fmt.Errorf("core: evict %s/%s: %w", c.desc.Name, r.session, err)
		}
		r.enter(tr, g, trace.PhaseReplay, "")
		var views []msg.RecordView
		views, err = c.domain.Log().SessionEntries(r.session)
		items = make([]replayItem, len(views))
		for i, v := range views {
			items[i] = replayItem{c: c, v: v}
		}
		r.pass.slice.session = len(items)
	} else {
		r.enter(tr, g, trace.PhaseRestore, "")
		for _, c := range g.members {
			if err = rt.restoreMember(t, r, c); err != nil {
				return err
			}
		}
		r.enter(tr, g, trace.PhaseReplay, "")
		items, err = rt.tailSlice(g, r)
	}
	if err != nil {
		return err
	}
	if err = rt.replay(t, g, r, items); err != nil {
		return err
	}
	r.enter(tr, g, trace.PhaseResume, "")
	if err = rt.resume(t, g, r); err != nil {
		return err
	}
	rt.record(t, g, r)
	return nil
}

// restoreMember rebuilds one member's arena, allocator and control state
// from the image selectImage settles on, or cold when there is none.
func (rt *Runtime) restoreMember(t *sched.Thread, r *recovery, c *component) error {
	// What the arena reflects from here on is governed by the log's own
	// seq bookkeeping (replayed records, epoch seq); the live-execution
	// high-water mark belongs to the dead incarnation.
	c.lastExecSeq = 0
	if err := rt.selectImage(r, c); err != nil {
		return err
	}
	cp := c.images.current()
	cold := cp == nil
	if cold {
		// Cold re-initialisation: scrub the arena so no aged state
		// survives, then boot the component afresh.
		heap, err := rt.scrubArena(c.heapBase, c.heapPages)
		if err != nil {
			return err
		}
		c.heap, c.imageFrom = heap, imageCold
		if cr, ok := c.comp.(ColdResetter); ok {
			cr.Reset()
		}
		t.Charge(costColdInit)
	} else {
		if err := rt.memry.Restore(cp.memSnap); err != nil {
			return err
		}
		c.heap = cp.heap.Clone()
		// Charge what the restore actually copies: the image's resident
		// pages. Absent pages restore as dropped frames (zeros) for free,
		// so a mostly-untouched arena no longer bills its full span on
		// every reboot.
		r.pass.rec.RestoredPages += cp.memSnap.Resident
		t.Charge(time.Duration(cp.memSnap.Resident) * costSnapshotPerPage)
		if ss, ok := c.comp.(StateSaver); ok && cp.control != nil {
			if err := ss.RestoreState(cp.control); err != nil {
				return fmt.Errorf("core: restore state of %q: %w", c.desc.Name, err)
			}
		}
	}
	if pol := rt.cfg.Defense; pol.Enabled {
		// Cold members re-randomize before Init so even the boot
		// allocations land on a fresh layout. Checkpoint-restored members
		// keep their image's allocation map (live blocks cannot move — the
		// restored bytes hold pointers into them), but every allocation
		// from here on draws from this reboot's seed: replay allocations,
		// free-list evolution and future block placement differ each
		// incarnation, and the seed itself is part of the layout
		// fingerprint.
		c.heap.Reseed(defense.RebootSeed(pol.Seed, c.desc.Name, c.reboots.Load()))
	}
	if cold {
		if err := c.comp.Init(&Ctx{rt: rt, comp: c, th: t, span: r.phase}); err != nil {
			return fmt.Errorf("core: re-init %q: %w", c.desc.Name, err)
		}
	}
	return nil
}

// scrubArena zeroes an arena and returns a fresh allocator over it.
func (rt *Runtime) scrubArena(base mem.Addr, pages int) (*mem.Buddy, error) {
	if err := rt.memry.Zero(base, pages*mem.PageSize); err != nil {
		return nil, err
	}
	return mem.NewBuddy(base, int64(pages)*mem.PageSize)
}

// selectImage settles which image member c restores from. Untainted, that
// is its store's current image (none: cold). Tainted, it is the
// taint-aware rollback: quarantine every image the watermark poisons,
// then make the newest image strictly predating it current. The suspect log tail is dropped
// — those calls ran against (or after) a tampered arena and must not be
// replayed — and the un-tainted slice that only the archive still holds
// is handed to the replay stage.
func (rt *Runtime) selectImage(r *recovery, c *component) error {
	c.imageFrom = imageLatest
	s := c.images
	if s == nil || s.taint == nil {
		return nil
	}
	w := s.taint.Watermark
	n := s.hist.QuarantineFrom(w)
	r.pass.rec.QuarantinedImages += n
	rt.stats.quarantined.Add(uint64(n))
	sel, ok := s.hist.SelectBefore(w)
	if !ok {
		return fmt.Errorf("core: taint rollback of %q: no retained checkpoint predates watermark %d (%d images quarantined)",
			c.desc.Name, w, s.hist.QuarantinedCount())
	}
	c.imageFrom = imagePreWatermark
	c.domain.Log().DropFrom(w)
	c.domain.Log().RewindEpoch(sel.Meta.EpochSeq)
	// Purge the archive of the poisoned suffix the same way DropFrom
	// purged the live log: records at or past the watermark must never
	// re-enter any future replay either.
	s.archive = slices.DeleteFunc(s.archive, func(v msg.RecordView) bool { return v.Seq >= w })
	for _, v := range s.archive {
		if v.Seq > sel.Meta.EpochSeq {
			r.pass.archived = append(r.pass.archived, replayItem{c: c, v: v})
		}
	}
	if rec := &r.pass.rec; rec.TaintWatermark == 0 || w < rec.TaintWatermark {
		rec.TaintWatermark, rec.RestoredEpochSeq = w, sel.Meta.EpochSeq
	}
	r.pass.tainted = append(r.pass.tainted, c)
	rt.stats.rollbacks.Add(1)
	if tr := rt.tracer; tr != nil {
		tr.Instant(r.span, trace.KindDetect, c.desc.Name, "rollback",
			fmt.Sprintf("watermark=%d restored-epoch-seq=%d quarantined=%d detector=%s",
				w, sel.Meta.EpochSeq, n, s.taint.Detector))
	}
	return nil
}

// tailSlice selects the component rung's replay slice: each stateful
// member's retained log past its image, plus the archived records a
// rollback re-admits, in global sequence order so cross-member orderings
// inside a merged group are preserved. At one seq the records keep member
// order, which is registration order, and boot order registers a callee
// before its callers: so the record a direct call into a co-member left
// replays before the caller's record that made it (callLogged), and the
// caller's later calls into the co-member find the state that call built.
func (rt *Runtime) tailSlice(g *group, r *recovery) ([]replayItem, error) {
	var items []replayItem
	for _, c := range g.members {
		if !c.desc.Stateful {
			continue
		}
		views, err := c.domain.Log().Entries()
		if err != nil {
			return nil, err
		}
		cover := c.domain.Log().EpochSeq()
		for _, v := range views {
			if cover != 0 && v.Seq <= cover {
				// Already in the restored image: a record that was still open
				// when its covering truncation ran closes into the log below
				// the epoch seq; replaying it would double-apply the call. A
				// zero epoch seq covers nothing, not even a co-member record
				// logged before the first message was minted (seq 0).
				continue
			}
			items = append(items, replayItem{c: c, v: v})
		}
	}
	r.pass.slice.live = len(items)
	// The slice between the restored (older) image and the watermark that
	// the live log no longer holds; the sort interleaves it with the
	// retained tail in original sequence order.
	items = append(items, r.pass.archived...)
	r.pass.slice.archive, r.pass.archived = len(r.pass.archived), nil
	sort.SliceStable(items, func(i, j int) bool { return items[i].v.Seq < items[j].v.Seq })
	return items, nil
}

// replay is the one replay loop: each selected record re-executes against
// its component with a replay context attached, so outbound calls feed
// from the logged results and downstream components are never disturbed.
func (rt *Runtime) replay(t *sched.Thread, g *group, r *recovery, items []replayItem) error {
	what := "replay"
	if r.comp != nil {
		what = "session replay"
	}
	if len(items) > 0 {
		r.pass.slice.first, r.pass.slice.last = items[0].v.Seq, items[len(items)-1].v.Seq
	}
	for i := range items {
		c, v := items[i].c, &items[i].v
		h, ok := c.exports[v.Fn]
		if !ok {
			return &UnknownFunctionError{Component: c.desc.Name, Fn: v.Fn}
		}
		rs := &replayState{grp: g, rec: v}
		ctx := &Ctx{rt: rt, comp: c, th: t, replay: rs, span: r.phase}
		rets, err, pv, panicked := rt.invoke(h, ctx, v.Args)
		if panicked {
			return fmt.Errorf("core: %s of %s.%s panicked: %v", what, c.desc.Name, v.Fn, pv)
		}
		if de, ok := err.(*ReplayDivergenceError); ok {
			return de
		}
		if rs.diverged != nil {
			// The component issued a call the log cannot answer — even if
			// it swallowed the error, the restored state is untrusted.
			return rs.diverged
		}
		if !v.Synthetic && v.Class != msg.ClassCanceler {
			// A replayed call must reproduce the results the original
			// produced, or the restored state cannot be trusted. Synthetic
			// records are exempt — they are state-install commands, not
			// calls with a logged outcome. Cancelers are exempt too: they
			// stay in the log only to reproduce resource numbering, and when
			// the session they close was created on the unlogged data path
			// (an accepted connection) replay legitimately answers "already
			// gone" — idempotent dissolution, not corruption.
			if de := retDivergence(c.desc.Name, v, rets, err); de != nil {
				rt.tracer.Instant(r.phase, trace.KindDetect, c.desc.Name, "replay-divergence", de.Error())
				return de
			}
		}
		t.Charge(costReplayPerEntry)
		c.domain.Log().MarkReplayed(1)
		// Replay is execution: the arena now reflects this call, and the
		// next checkpoint (the post-rollback re-square in particular, whose
		// replayed tail may live only in the archive) must cover it. At the
		// session rung the live high-water mark is already past the slice.
		if v.Seq > c.lastExecSeq {
			c.lastExecSeq = v.Seq
		}
		r.pass.rec.ReplayedEntries++
	}
	return nil
}

// resume puts back what replay cannot regenerate. At the session rung
// that is nothing — the component never went down. At the component
// rung: runtime data (LWIP seq/ACK numbers), then the defense epilogue —
// every tainted member is re-squared around the rolled-back state: a
// fresh capture at this quiescent point becomes the new latest image
// (ranked below the quarantined ones by epoch seq), the replayed prefix
// folds into it, and a fresh seal makes the post-tamper host stamps the
// new clean baseline.
func (rt *Runtime) resume(t *sched.Thread, g *group, r *recovery) error {
	if r.comp != nil {
		return nil
	}
	for _, c := range g.members {
		rk, ok := c.comp.(RuntimeKeeper)
		if !ok || c.runtimeState == nil {
			continue
		}
		ctx := &Ctx{rt: rt, comp: c, th: t, span: r.phase}
		if err := rk.InstallRuntimeState(ctx, c.runtimeState); err != nil {
			return fmt.Errorf("core: install runtime state of %q: %w", c.desc.Name, err)
		}
	}
	for _, c := range r.pass.tainted {
		if err := rt.checkpointComponent(t, c); err != nil {
			return fmt.Errorf("core: post-rollback checkpoint of %q: %w", c.desc.Name, err)
		}
		c.images.taint = nil
		rt.captureSeal(c)
	}
	return nil
}

// record closes the recovery: counters, the RebootRecord or
// MicrorebootRecord, and the trace span — all at one reading of the
// worker's own time view (during a buffered round the global clock still
// reads the round base, but the recovery's charges are this thread's and
// belong in its latency), so the trace-derived timeline and the record
// can never disagree.
func (rt *Runtime) record(t *sched.Thread, g *group, r *recovery) {
	rec := &r.pass.rec
	rec.Reason, rec.VirtualDuration, rec.At = r.reason, t.Elapsed()-r.startV, rt.clk.At(t.Elapsed())
	//vampos:allow detclock -- closes the wall-time measurement opened in beginRecovery; presentation-only
	rec.WallDuration = time.Since(r.startW)
	if c := r.comp; c != nil {
		rt.stats.microreboots.Add(1)
		c.micro.Add(1)
		m := MicrorebootRecord{
			Component: c.desc.Name, Session: string(r.session), Reason: rec.Reason, At: rec.At,
			VirtualDuration: rec.VirtualDuration, WallDuration: rec.WallDuration, ReplayedEntries: rec.ReplayedEntries,
		}
		rt.recMu.Lock()
		rt.microreboots = append(rt.microreboots, m)
		rt.recMu.Unlock()
	} else {
		rec.Group, rec.Components = g.name, make([]string, len(g.members))
		if rt.cfg.Defense.Enabled {
			rec.LayoutFingerprints = make([]uint64, len(g.members))
		}
		for i, c := range g.members {
			if rec.LayoutFingerprints != nil {
				// The member's (re-randomized) arena layout.
				rec.LayoutFingerprints[i] = c.heap.Fingerprint()
				c.layoutFP.Store(rec.LayoutFingerprints[i])
			}
			c.reboots.Add(1)
			rec.Components[i] = c.desc.Name
		}
		rt.recMu.Lock()
		rt.reboots = append(rt.reboots, *rec)
		rt.recMu.Unlock()
	}
	r.end(rt.tracer, g, "", "ok")
}
