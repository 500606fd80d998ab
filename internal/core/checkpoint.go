package core

import (
	"fmt"
	"time"

	"vampos/internal/ckpt"
	"vampos/internal/defense"
	"vampos/internal/mem"
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

// imageStore is everything a checkpoint-eligible component restores
// from: the retained images with the current one marked, and the defense
// state that decides which image a restore may land on. Without defense
// the history holds one image and the defense fields stay zero. Touched
// only under the cooperative scheduler baton.
type imageStore struct {
	hist *ckpt.History[*checkpoint]
	// archive keeps decoded views of truncated log records still covered
	// by a retained image, so the un-tainted slice between an older image
	// and a watermark remains replayable; seal is the arena's host-write
	// stamp capture from the last clean quiescent verification, sealCalls
	// the calls since; taint carries a pending detection the next restore
	// must honour.
	archive   []msg.RecordView
	seal      *defense.Seal
	sealCalls int
	taint     *defense.Taint
}

// newImageStore builds c's empty image store at Boot, and again when a
// full restart or a version switch makes every image of the earlier
// incarnation meaningless. Building a whole store is the only reset, so
// none can leave a stale image, archive, seal or taint behind. It returns
// nil unless c is checkpoint-eligible (Stateful with Checkpoint set) in
// message-passing mode: vanilla mode has no logs, no workers and no
// reboots.
func (rt *Runtime) newImageStore(c *component) *imageStore {
	if !rt.cfg.MessagePassing || !c.desc.Stateful || !c.desc.Checkpoint {
		return nil
	}
	depth := 1
	if rt.cfg.Defense.Enabled {
		depth = rt.cfg.Defense.HistoryDepth
	}
	return &imageStore{hist: ckpt.NewHistory[*checkpoint](depth)}
}

// current returns the image the component restores from, nil when it has
// none (not checkpoint-eligible, or nothing captured since its store was
// built): the component then reboots cold.
func (s *imageStore) current() *checkpoint {
	if s == nil {
		return nil
	}
	e, _ := s.hist.Current()
	return e.Image
}

// captureImage images c's arena, allocator and control state: in full
// when base is nil (the post-init image), otherwise as a dirty-page delta
// layered over base. It returns the image and the pages it re-copied.
func (rt *Runtime) captureImage(c *component, base *mem.Snapshot) (cp *checkpoint, dirty int, err error) {
	var snap *mem.Snapshot
	if base == nil {
		snap, err = rt.memry.Snapshot(c.heapBase, c.heapPages)
	} else {
		snap, dirty, err = rt.memry.SnapshotDelta(base)
	}
	if err != nil {
		return nil, 0, err
	}
	cp = &checkpoint{memSnap: snap, heap: c.heap.Clone()}
	if ss, ok := c.comp.(StateSaver); ok {
		if cp.control, err = ss.SaveState(); err != nil {
			return nil, 0, err
		}
	}
	return cp, dirty, nil
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
		if c.images.current() == nil {
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
	s := c.images
	// Under defense, the records truncation is about to drop must stay
	// replayable against older retained images: a taint-aware rollback
	// replays the un-tainted slice between an old image and the
	// watermark, and part of that slice lives only in the archive once
	// the live log is truncated. Decode before anything is installed so
	// a decode failure leaves the component untouched.
	var truncViews []msg.RecordView
	var err error
	if rt.cfg.Defense.Enabled {
		if truncViews, err = c.domain.Log().Entries(); err != nil {
			return fail(err)
		}
	}
	cp, dirtyPages, err := rt.captureImage(c, s.current().memSnap)
	if err != nil {
		return fail(err)
	}
	// The image reflects every completed call, so the prefix up to the
	// newest completed record is replayable from the image alone. The
	// truncation and the install both run under the baton, so no observer
	// sees one without the other; the image is installed second so its
	// metadata carries the epoch the truncation advanced to.
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
	// The image's EpochSeq is the truncation seq — exactly the calls it
	// covers — not lg.EpochSeq(), which after a rollback can stay inflated
	// above what this capture actually folded.
	s.hist.Add(ckpt.ImageMeta{Epoch: lg.Epoch(), EpochSeq: truncSeq}, cp)
	if rt.cfg.Defense.Enabled {
		s.archiveTruncated(truncViews, truncSeq)
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
		if tc.images.current() == nil {
			return fmt.Errorf("core: component %q is not checkpoint-eligible (needs Stateful with Checkpoint)", name)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return c.rt.checkpointComponent(c.th, tc)
}
