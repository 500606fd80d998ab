package core

import (
	//vampos:allow schedonly -- Rejuvenator.stop is flipped by host-side goroutines (tests, experiment monitors) while the schedule thread polls it; a plain bool would be a data race
	"sync/atomic"
	"time"
)

// Rejuvenator performs periodic proactive component reboots — the
// administrator's software-rejuvenation schedule of §IV/§VII-D, where
// component-level reboots are cheap enough to run "more frequently than
// in the case of a regular reboot". For the sensor-driven alternative
// see AgingDriver.
type Rejuvenator struct {
	rt       *Runtime
	interval time.Duration
	targets  []string
	stop     atomic.Bool

	// Stats
	Rounds  uint64
	Reboots uint64
	Errors  uint64
	LastErr error
}

// NewRejuvenator creates a driver that reboots the listed components one
// by one, waiting interval between reboots. An empty target list means
// every rebootable registered component, in boot order.
func (rt *Runtime) NewRejuvenator(interval time.Duration, targets ...string) *Rejuvenator {
	if len(targets) == 0 {
		for _, c := range rt.order {
			if !c.desc.Unrebootable {
				targets = append(targets, c.desc.Name)
			}
		}
	}
	return &Rejuvenator{rt: rt, interval: interval, targets: targets}
}

// Run executes the schedule on the calling thread until Stop is called
// (or the simulation ends). Typically launched with ctx.Go.
func (r *Rejuvenator) Run(ctx *Ctx) {
	for i := 0; !r.stop.Load() && !r.rt.stopped; i++ {
		ctx.Sleep(r.interval)
		if r.stop.Load() || r.rt.stopped {
			return
		}
		target := r.targets[i%len(r.targets)]
		if err := ctx.Reboot(target); err != nil {
			r.Errors++
			r.LastErr = err
		} else {
			r.Reboots++
		}
		if (i+1)%len(r.targets) == 0 {
			r.Rounds++
		}
	}
}

// Stop ends the schedule after the current wait or reboot. Safe to call
// from any goroutine, including host-side code outside the scheduler
// baton.
func (r *Rejuvenator) Stop() { r.stop.Store(true) }
