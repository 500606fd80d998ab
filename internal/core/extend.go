package core

import (
	"fmt"

	"vampos/internal/mem"
	"vampos/internal/sched"
)

// This file implements the two recovery extensions the paper sketches in
// its discussion section (§VIII):
//
//   - Graceful termination with unrecoverable components: when a
//     component fail-stops permanently, the application gets a last
//     chance to save its state through the still-undamaged components
//     ("storing the current in-memory KVs in storage just before a
//     fail-stop is more helpful than eliminating all the KVs").
//
//   - Multi-version components for deterministic bugs: a registered
//     alternate implementation replaces a component whose retried input
//     fails again, eliminating the buggy code path instead of
//     fail-stopping.

// SetFailStopHandler registers fn to run when a component group
// fail-stops permanently. The handler runs on a fresh application
// thread, so it may call the remaining healthy components (calls into
// the dead group fail fast with ErrComponentFailed).
func (rt *Runtime) SetFailStopHandler(fn func(ctx *Ctx, component string)) {
	rt.onFailStop = fn
}

// notifyFailStop spawns the graceful-termination handler for a dead
// group, at most once per group.
func (rt *Runtime) notifyFailStop(g *group) {
	if rt.onFailStop == nil || g.failStopNotified {
		return
	}
	g.failStopNotified = true
	name := g.name
	handler := rt.onFailStop
	pkru := mem.PKRU(mem.AllowAll)
	if rt.cfg.MessagePassing {
		pkru = mem.Allow(keyApp)
	}
	rt.sch.Spawn("vampos/failstop", pkru, func(t *sched.Thread) {
		handler(&Ctx{rt: rt, th: t, appName: "failstop"}, name)
	})
}

// RegisterFallback installs an alternate implementation for a component
// (the multi-versioning of §VIII). When the component's retried input
// crashes again — the deterministic-bug signature — the runtime swaps in
// the alternate, cold-boots it, replays the retained log against it,
// and lets the caller retry once more instead of fail-stopping. The
// alternate must expose the same interface under the same name.
func (rt *Runtime) RegisterFallback(name string, alt Component) error {
	c, ok := rt.comps[name]
	if !ok {
		return &UnknownComponentError{Name: name}
	}
	if alt == nil {
		return fmt.Errorf("core: nil fallback for %q", name)
	}
	if alt.Describe().Name != name {
		return fmt.Errorf("core: fallback for %q describes itself as %q", name, alt.Describe().Name)
	}
	if _, _, err := sessionTable(alt); err != nil {
		return err
	}
	c.fallback = alt
	return nil
}

// trySwapFallback replaces a deterministically failing component with
// its registered alternate and reboots the group around it. It runs on
// the caller's thread; it returns false when no unused fallback exists
// or the swapped-in version also fails to restore.
func (rt *Runtime) trySwapFallback(th *sched.Thread, tc *component) bool {
	if tc.fallback == nil || tc.fallbackUsed {
		return false
	}
	g := tc.group
	// Let any in-flight restoration settle before operating on the group.
	awaitRecovered(th, g)
	tc.fallbackUsed = true
	tc.comp = tc.fallback
	tc.exports = tc.fallback.Exports()
	tc.sessions, tc.policies, _ = sessionTable(tc.fallback) // checked by RegisterFallback
	// The old version's images mean nothing to the new code: a fresh
	// image store makes the swap cold-boot and replay, and no seal, taint
	// or archive of the old version outlives it.
	tc.images = rt.newImageStore(tc)
	tc.runtimeState = nil
	rt.stats.versionSwitches.Add(1)
	g.failedTwice = false
	rt.beginRecovery(g, nil, "", "version-switch", true, 0)
	return awaitRecovered(th, g)
}
