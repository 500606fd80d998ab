package core

import (
	"fmt"

	"vampos/internal/msg"
	"vampos/internal/sched"
)

// FullRestart is the baseline the paper compares against: the regular
// reboot that restarts the whole unikernel image. Every component is
// torn down and re-initialised from scratch, all logs and runtime state
// are discarded, and every in-flight call fails. Unlike VampOS's
// component-level reboot nothing is restored — the application layer is
// expected to rebuild its own state (e.g. Redis reloading its AOF)
// after the instance comes back.
//
// It must be called from an application/controller thread that is not
// itself waiting on any component call. The caller is responsible for
// having stopped the application threads first.
func (rt *Runtime) FullRestart(c *Ctx) error {
	if !rt.booted {
		return fmt.Errorf("core: FullRestart before Boot")
	}
	if rt.cfg.MessagePassing {
		// Fail everything in flight in seq order (deterministic caller
		// wake order); queued mailbox work dies with it.
		rt.pending.each(func(pc *pendingCall) {
			rt.finishCall(pc, nil, errnoString(ErrStopped))
		})
		rt.mq, rt.mqHead = nil, 0
		for _, g := range rt.groups {
			if g.worker != nil && g.worker.t.State() != sched.StateDone {
				g.worker.t.Kill()
			}
			g.rebooting = false
			g.failedTwice = false
			g.currentSeq = 0
			g.curRec, g.curLog = msg.Ref{}, nil
		}
	}
	// Scrub every component: memory, allocators, logs, runtime state.
	for _, comp := range rt.order {
		heap, err := rt.scrubArena(comp.heapBase, comp.heapPages)
		if err != nil {
			return err
		}
		comp.heap = heap
		comp.domain.DropQueued()
		comp.domain.Log().Reset()
		comp.runtimeState = nil
		comp.images = rt.newImageStore(comp)
		if cr, ok := comp.comp.(ColdResetter); ok {
			cr.Reset()
		}
	}
	// Reset the application heap as well: the whole image restarts.
	if rt.appHeap != nil {
		heap, err := rt.scrubArena(rt.appHeapBase, rt.appHeapPages)
		if err != nil {
			return err
		}
		rt.appHeap = heap
	}
	// Re-initialise in boot order, seeding the fresh image stores with new
	// post-init images.
	return rt.initAll(c.th, "full restart init")
}
