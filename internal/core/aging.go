package core

import (
	//vampos:allow schedonly -- AgingDriver.stop is flipped by host-side goroutines (campaign verify, tests) while the controller thread polls it; see Rejuvenator.Stop
	"sync/atomic"
	"time"

	"vampos/internal/aging"
	"vampos/internal/trace"
)

// This file is the runtime half of adaptive aging-driven rejuvenation
// (internal/aging holds the policy half). The paper motivates component
// reboot with software aging — leaks and fragmentation that only a
// reboot reclaims (§IV) — and the blind answer is Rejuvenator's fixed
// interval. The AgingDriver instead samples each component's heap at
// quiescent points on the virtual clock, scores its leak slope through
// the aging.Engine, and rejuvenates only the components whose observed
// aging crossed the threshold, in dependency (boot) order, re-imaging
// each one immediately after its reboot so the next recovery replays a
// near-empty log tail from a clean checkpoint.

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
	} else if rt.cfg.MessagePassing && tc.desc.Stateful && tc.desc.Checkpoint && tc.checkpoint != nil {
		if cerr := c.Checkpoint(name); cerr != nil {
			detail += "; post-reboot checkpoint skipped: " + cerr.Error()
		}
	}
	rt.tracer.EndErr(c.span, detail)
	c.span = prev
	return err
}

// agingSample reads one component's heap. The caller runs under the
// cooperative scheduler baton, which is exactly the quiescence the
// reading needs: no handler frame mutates the arena while it is taken.
func (rt *Runtime) agingSample(c *component, now time.Duration) aging.Sample {
	s := aging.Sample{At: now}
	if c.heap != nil {
		s.HeapAllocated = c.heap.Stats().AllocatedBytes
	}
	return s
}

// AgingDriver is the adaptive-rejuvenation controller: the sensor-driven
// successor of the fixed-interval Rejuvenator. It samples every target's
// heap each SamplePeriod of virtual time, feeds the readings to the
// policy engine, and rejuvenates the components the engine declares due,
// in dependency order. Boot starts one automatically when Config.Aging
// is enabled; tests and experiments may also run one by hand via
// NewAgingDriver + Ctx.Go.
type AgingDriver struct {
	rt     *Runtime
	engine *aging.Engine
	// stop is atomic for the same reason as Rejuvenator.stop: Stop is
	// called from host-side goroutines while the controller thread polls.
	stop atomic.Bool

	// Stats
	Rounds  uint64 // completed sample sweeps
	Reboots uint64 // successful rejuvenations
	Errors  uint64 // failed rejuvenations (each arming backoff)
	LastErr error
}

// NewAgingDriver creates an adaptive controller over the given policy.
// An empty target list means every rebootable registered component, in
// boot order — which is dependency order, since substrates register
// first, so a rolling pass reboots providers before their dependents.
func (rt *Runtime) NewAgingDriver(p aging.Policy, targets ...string) *AgingDriver {
	if len(targets) == 0 {
		for _, c := range rt.order {
			if !c.desc.Unrebootable {
				targets = append(targets, c.desc.Name)
			}
		}
	}
	return &AgingDriver{rt: rt, engine: aging.NewEngine(p, targets...)}
}

// Policy returns the normalized policy the driver enforces.
func (d *AgingDriver) Policy() aging.Policy { return d.engine.Policy() }

// Run executes the sample/score/rejuvenate loop on the calling thread
// until Stop is called or the simulation ends. Typically launched with
// ctx.Go (Boot does so automatically when Config.Aging is enabled).
func (d *AgingDriver) Run(ctx *Ctx) {
	period := d.engine.Policy().SamplePeriod
	for !d.stop.Load() && !d.rt.stopped {
		ctx.Sleep(period)
		if d.stop.Load() || d.rt.stopped {
			return
		}
		now := ctx.Elapsed()
		for _, name := range d.engine.Components() {
			c, ok := d.rt.comps[name]
			if !ok || c.group == nil || c.group.failedTwice {
				continue
			}
			d.engine.Observe(name, d.rt.agingSample(c, now))
		}
		for _, name := range d.engine.Due(now) {
			if d.stop.Load() || d.rt.stopped {
				return
			}
			err := ctx.Rejuvenate(name)
			d.engine.NoteResult(name, ctx.Elapsed(), err == nil)
			if err != nil {
				d.Errors++
				d.LastErr = err
			} else {
				d.Reboots++
			}
		}
		d.Rounds++
	}
}

// Stop ends the controller after the current sweep. Safe to call from
// any goroutine.
func (d *AgingDriver) Stop() { d.stop.Store(true) }

// Stats returns the named target's monitor accounting.
func (d *AgingDriver) Stats(name string) (aging.Stats, bool) {
	return d.engine.Stats(name)
}

// AgingDriver returns the controller Boot started for Config.Aging, or
// nil when adaptive rejuvenation is not configured.
func (rt *Runtime) AgingDriver() *AgingDriver { return rt.agingDriver }

// AgingStats returns the named component's adaptive-rejuvenation monitor
// accounting; false when no controller runs or the component is not a
// target.
func (rt *Runtime) AgingStats(name string) (aging.Stats, bool) {
	if rt.agingDriver == nil {
		return aging.Stats{}, false
	}
	return rt.agingDriver.Stats(name)
}

// agingHot reports whether the boot-started adaptive controller has the
// named component latched over its aging threshold, or is still inside
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
func (rt *Runtime) agingHot(name string) bool {
	st, ok := rt.AgingStats(name)
	if !ok {
		return false
	}
	return st.Hot || rt.clk.Elapsed() < st.CooldownUntil
}
