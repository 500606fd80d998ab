package core

import (
	"fmt"
	"time"

	"vampos/internal/msg"
	"vampos/internal/sched"
)

// FullRestartStats describes one whole-image restart.
type FullRestartStats struct {
	VirtualDuration time.Duration
	WallDuration    time.Duration
	At              time.Time
}

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
	startV := rt.clk.Elapsed()
	//vampos:allow detclock -- full-restart latency is reported in wall time alongside virtual time (recovery comparison); the reading never feeds back into the simulation
	startW := time.Now()

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
		comp.checkpoint = nil
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
	// Re-initialise in boot order, re-taking checkpoints.
	if err := rt.initAll(c.th, "full restart init"); err != nil {
		return err
	}
	rt.recMu.Lock()
	rt.fullRestarts = append(rt.fullRestarts, FullRestartStats{
		VirtualDuration: rt.clk.Elapsed() - startV,
		//vampos:allow detclock -- closes the wall-time measurement opened at FullRestart entry; presentation-only
		WallDuration: time.Since(startW),
		At:           rt.clk.Now(),
	})
	rt.recMu.Unlock()
	return nil
}

// FullRestarts returns the record of whole-image restarts. Safe to call
// from any goroutine.
func (rt *Runtime) FullRestarts() []FullRestartStats { return copyRecords(rt, &rt.fullRestarts) }
