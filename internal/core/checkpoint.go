package core

import (
	"fmt"
	"time"

	"vampos/internal/ckpt"
	"vampos/internal/msg"
	"vampos/internal/sched"
	"vampos/internal/trace"
)

// This file is the runtime half of incremental quiescent-point
// checkpointing (internal/ckpt holds the policy half). The paper
// checkpoints each component once, right after Init (§V-E), so recovery
// replays every retained call — reboot latency grows with time since
// boot. Here the worker loop re-checkpoints a component whenever its
// cadence policy says so, at a point where the component is provably
// quiescent, and then truncates the log prefix the fresh image covers,
// bounding replay to the tail.

// installTrackers attaches a cadence tracker to every checkpoint-eligible
// component (Stateful with Checkpoint set — the same components that get
// a post-init image). Runs at Boot, message-passing mode only: vanilla
// mode has no logs, no workers and no reboots, so nothing to bound.
func (rt *Runtime) installTrackers() {
	if !rt.cfg.MessagePassing {
		return
	}
	for _, c := range rt.order {
		if c.desc.Stateful && c.desc.Checkpoint {
			// A disabled policy still gets a tracker: manual Ctx.Checkpoint
			// calls are accounted through it.
			c.tracker = ckpt.NewTracker(rt.cfg.Ckpt)
		}
	}
}

// maybeCheckpoint re-checkpoints any group member whose cadence is due.
// The worker calls it between inbound calls: the previous call fully
// completed (currentSeq is zero), no handler frame is live, and queued
// messages wait in the mailbox until the worker resumes — the mailbox is
// effectively paused under the cooperative scheduler baton, which is
// exactly the quiescence a consistent image needs. The watchdog never
// flags a checkpointing group for the same reason: it only inspects
// groups with a call in flight. Merged groups compose naturally: group
// quiescence is member quiescence, so any due member may be imaged.
func (rt *Runtime) maybeCheckpoint(g *group) {
	if g.rebooting || g.failedTwice {
		return
	}
	for _, c := range g.members {
		if c.tracker == nil || c.checkpoint == nil {
			continue
		}
		if rt.agingHot(c) {
			// The adaptive-aging monitor has this component latched over
			// threshold: a rejuvenation is imminent, and imaging the arena
			// now would bake the accumulated leak or fragmentation into
			// the recovery image — the restore would resurrect exactly the
			// state the rejuvenation exists to shed, and once the log is
			// truncated against an aged image the pre-aging state is
			// unrecoverable. Skip the cadence until the latch releases;
			// explicit Ctx.Checkpoint stays ungated because Rejuvenate's
			// post-reboot capture runs while the latch is still set.
			continue
		}
		if !c.tracker.Due() {
			continue
		}
		if err := rt.checkpointComponent(g.worker.t, c); err != nil {
			// A failed capture leaves the previous image and the untruncated
			// log in place — recovery is still correct, just not cheaper.
			rt.stats.checkpointErrors.Add(1)
		}
	}
}

// checkpointComponent captures one incremental checkpoint: a dirty-page
// delta layered over the previous image, fresh control state, then
// truncation of the log prefix the new image covers. The caller must
// guarantee quiescence. On error the component's previous checkpoint and
// log are left untouched.
// th is the simulated thread doing the capture (the group worker, or the
// caller of Ctx.Checkpoint); the capture cost is charged to it so the
// charge lands in the right shard's journal during buffered rounds.
func (rt *Runtime) checkpointComponent(th *sched.Thread, c *component) error {
	tr := rt.tracer
	sp := tr.Begin(0, trace.KindCkpt, c.desc.Name, "", trace.PhaseCheckpoint)
	fail := func(err error) error {
		tr.EndErr(sp, err.Error())
		return fmt.Errorf("core: checkpoint %q: %w", c.desc.Name, err)
	}
	snap, dirtyPages, err := rt.memry.SnapshotDelta(c.checkpoint.memSnap)
	if err != nil {
		return fail(err)
	}
	// Under defense, the records truncation is about to drop must stay
	// replayable against older retained images: a taint-aware rollback
	// replays the un-tainted slice between an old image and the
	// watermark, and part of that slice lives only in the archive once
	// the live log is truncated. Decode before anything is installed so
	// a decode failure leaves the component untouched.
	var truncViews []msg.RecordView
	if c.images != nil {
		if truncViews, err = c.domain.Log().Entries(); err != nil {
			return fail(err)
		}
	}
	cp := &checkpoint{memSnap: snap, heap: c.heap.Clone(), takenAt: rt.clk.Now()}
	if ss, ok := c.comp.(StateSaver); ok {
		if cp.control, err = ss.SaveState(); err != nil {
			return fail(err)
		}
	}
	// The image now reflects every completed call, so the prefix up to
	// the newest completed record is replayable from the image alone.
	// Install the image first, then truncate: both run under the baton,
	// so no observer can see the intermediate state anyway, but the order
	// keeps a (hypothetical) truncation failure from orphaning entries a
	// not-yet-installed image would have covered.
	c.checkpoint = cp
	lg := c.domain.Log()
	// The image covers every call executed so far, which at a worker
	// quiescent point is one more than the log shows completed: the
	// just-finished call's record stays open until the message thread
	// processes its reply, yet its effects are already in the capture.
	// Label (and truncate) with the executed high-water mark so replay
	// never re-applies a call the image contains.
	truncSeq := lg.MaxCompletedSeq()
	if c.lastExecSeq > truncSeq {
		truncSeq = c.lastExecSeq
	}
	dropped, folded := lg.TruncateBefore(truncSeq)
	if c.images != nil {
		// The image's EpochSeq is the truncation seq — exactly the calls
		// it covers — not lg.EpochSeq(), which after a rollback can stay
		// inflated above what this capture actually folded.
		c.images.Add(ckpt.ImageMeta{Epoch: lg.Epoch(), EpochSeq: truncSeq}, cp)
		c.archiveTruncated(truncViews, truncSeq)
	}
	// Charge what the mechanism actually moved: dirty pages copied into
	// the image (the whole point of the delta) plus the log rewrite.
	rt.chargeOn(th, time.Duration(dirtyPages)*costSnapshotPerPage)
	rt.chargeOn(th, time.Duration(dropped+folded)*costLogAppend)
	c.tracker.NoteCheckpoint(dirtyPages, dropped, folded)
	rt.stats.checkpoints.Add(1)
	if tr != nil {
		tr.EndErr(sp, fmt.Sprintf("dirty=%d truncated=%d folded=%d", dirtyPages, dropped, folded))
	}
	return nil
}

// Checkpoint forces an immediate quiescent-point checkpoint of the named
// component from an application or controller thread, regardless of its
// cadence policy — the checkpointing analogue of Ctx.Reboot. It waits
// for the component's group to go idle, captures the image, and returns.
func (c *Ctx) Checkpoint(name string) error {
	tc, err := c.awaitIdle(name, "checkpoint itself", func(tc *component) error {
		if !c.rt.cfg.MessagePassing {
			return fmt.Errorf("core: checkpoint of %q requires message passing", name)
		}
		if !tc.desc.Stateful || !tc.desc.Checkpoint || tc.checkpoint == nil {
			return fmt.Errorf("core: component %q is not checkpoint-eligible (needs Stateful with Checkpoint)", name)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return c.rt.checkpointComponent(c.th, tc)
}
