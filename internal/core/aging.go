package core

import (
	"vampos/internal/aging"
	"vampos/internal/mem"
	"vampos/internal/sched"
	"vampos/internal/trace"
)

// This file is the runtime half of adaptive aging-driven rejuvenation
// (internal/aging holds the policy half). The paper motivates component
// reboot with software aging — leaks and fragmentation that only a
// reboot reclaims (§IV) — and the blind answer is a fixed-interval
// reboot schedule, which the figures that compare against it run as
// their own loops. The controller here instead samples each target's
// heap at quiescent points on the virtual clock, scores its leak slope
// through one aging.Monitor per target, and rejuvenates only the
// targets whose observed aging crossed the threshold, in target order,
// re-imaging each one immediately after its reboot so the next recovery
// replays a near-empty log tail from a clean checkpoint.

// Rejuvenate proactively reboots the named component, checkpoint-aware:
// the reboot restores from the component's last checkpoint image and
// replays the retained tail — shedding every allocation and every byte
// of fragmentation accumulated since that image — and then, if the
// component is checkpoint-eligible, a fresh checkpoint of the
// just-rejuvenated component is taken immediately after, so the next
// recovery (crash or rejuvenation alike) restores from a clean image
// with a near-empty replay tail.
//
// The checkpoint deliberately rides AFTER the reboot, not before:
// checkpoints image the arena verbatim, so imaging an aged component
// would fold its leaks and fragmentation into the recovery image —
// preserving precisely the state rejuvenation exists to shed (the
// paper's argument for reboot-based recovery over checkpoint/restore,
// §IV). The reboot is recorded with reason "rejuvenation" and traced as
// a KindRejuv span whose children are the reboot and the post-reboot
// checkpoint. A failed checkpoint degrades gracefully (recovery stays
// correct, just not cheaper); a failed reboot is the caller's error.
func (c *Ctx) Rejuvenate(name string) error {
	rt := c.rt
	tc, ok := rt.comps[name]
	if !ok {
		return &UnknownComponentError{Name: name}
	}
	// Recorder methods are nil-safe; with tracing off every span is zero.
	prev := c.span
	c.span = rt.tracer.Begin(prev, trace.KindRejuv, name, "", "rejuvenate")
	err := c.rebootAs(name, "rejuvenation")
	detail := "ok"
	if err != nil {
		detail = err.Error()
	} else if tc.images.current() != nil {
		if cerr := c.Checkpoint(name); cerr != nil {
			detail += "; post-reboot checkpoint skipped: " + cerr.Error()
		}
	}
	rt.tracer.EndErr(c.span, detail)
	c.span = prev
	return err
}

// startAging starts the adaptive-rejuvenation controller, the thread
// Boot runs when Config.Aging is enabled. Its targets are
// Config.AgingTargets, or, when that is empty, every rebootable
// component in boot order — which is dependency order, since substrates
// register first, so a rolling pass reboots providers before their
// dependents. Each target gets one monitor.
func (rt *Runtime) startAging() error {
	names := rt.cfg.AgingTargets
	if len(names) == 0 {
		for _, c := range rt.order {
			if !c.desc.Unrebootable {
				names = append(names, c.desc.Name)
			}
		}
	}
	for _, name := range names {
		c, ok := rt.comps[name]
		if !ok {
			return &UnknownComponentError{Name: name}
		}
		c.aging = aging.NewMonitor(rt.cfg.Aging)
		rt.agingTargets = append(rt.agingTargets, c)
	}
	rt.sch.Spawn("vampos/aging", mem.Allow(keyScheduler), func(t *sched.Thread) {
		rt.agingLoop(&Ctx{rt: rt, th: t, appName: "aging"})
	})
	return nil
}

// agingLoop samples every target's heap each SamplePeriod of virtual
// time and rejuvenates the targets whose monitors are due, until the
// simulation stops. A sample is read under the cooperative scheduler
// baton, which is exactly the quiescence it needs: no handler frame
// mutates the arena while it is taken. Every target's Due is evaluated
// before any target is rejuvenated, so a sweep counts its suppressed
// firings against the same instant whatever the reboots cost.
func (rt *Runtime) agingLoop(ctx *Ctx) {
	var due []*component
	for !rt.stopped {
		ctx.Sleep(rt.cfg.Aging.SamplePeriod)
		if rt.stopped {
			return
		}
		now := ctx.Elapsed()
		for _, c := range rt.agingTargets {
			if c.group.failedTwice {
				continue
			}
			s := aging.Sample{At: now}
			if c.heap != nil {
				s.HeapAllocated = c.heap.Stats().AllocatedBytes
			}
			c.aging.Observe(s)
		}
		due = due[:0]
		for _, c := range rt.agingTargets {
			if c.aging.Due(now) {
				due = append(due, c)
			}
		}
		for _, c := range due {
			if rt.stopped {
				return
			}
			err := ctx.Rejuvenate(c.desc.Name)
			c.aging.NoteRejuvenation(ctx.Elapsed(), err == nil)
		}
	}
}

// agingHot reports whether the adaptive controller has the component
// latched over its aging threshold, or is still inside
// the cooldown that follows a rejuvenation. The checkpoint cadence
// consults this so it never images an arena the controller is about to
// rejuvenate. The cooldown half matters for continuous aging: right
// after a rejuvenation the monitor's window is reset, so the latch needs
// a full window of samples to re-engage — a blind interval during which
// a cadence checkpoint would image the still-leaking arena and ratchet
// those bytes into every later restore. Gating through the cooldown
// closes the gap: if aging persists, Hot re-latches before the cooldown
// expires and the gate holds continuously; if aging stopped, the
// cooldown lapses and the cadence resumes. Reads happen on the worker
// thread while the controller mutates the monitor, but both run under
// the cooperative scheduler baton, which serializes them.
func (rt *Runtime) agingHot(c *component) bool {
	if c.aging == nil {
		return false
	}
	st := c.aging.Stats()
	return st.Hot || rt.clk.Elapsed() < st.CooldownUntil
}
