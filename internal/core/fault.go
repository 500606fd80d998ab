package core

import (
	"fmt"
	"sort"
	"time"

	"vampos/internal/mem"
	"vampos/internal/trace"
)

// FaultKind selects the injected failure mode (paper §II-B fault model).
type FaultKind uint8

// Injectable fault kinds.
const (
	// FaultCrash panics inside the handler: a fail-stop crash (invalid
	// pointer dereference, assertion, panic()).
	FaultCrash FaultKind = iota + 1
	// FaultHang parks the handler forever: a deadlock/livelock the hang
	// detector must catch.
	FaultHang
	// FaultErrno makes the armed function return a spurious errno
	// instead of executing: the transient-error path (a device timeout,
	// a dropped request) that must not trigger any recovery machinery.
	FaultErrno
)

func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultHang:
		return "hang"
	case FaultErrno:
		return "errno"
	default:
		return fmt.Sprintf("FaultKind(%d)", uint8(k))
	}
}

// AnyFunction arms a fault on whichever exported function the component
// is invoked through next — the campaign engine's "fault anywhere in the
// component" injection site.
const AnyFunction = "*"

// FaultSpec describes one armed fault in full.
type FaultSpec struct {
	// Kind selects the failure mode.
	Kind FaultKind
	// After fires the fault on the After-th invocation of the armed
	// function rather than the next one (0 and 1 both mean "next"):
	// earlier invocations execute normally. Campaigns use it to walk a
	// fault through a component's whole invocation history.
	After int
	// Errno is the error returned by a FaultErrno fault; empty means EIO.
	Errno Errno
}

// faultSite is the function a fault is armed on: fn is an export of
// component, or AnyFunction.
type faultSite struct{ component, fn string }

type armedFault struct {
	site  string // "component.fn", as PendingFaults lists it
	kind  FaultKind
	count int // invocations remaining until the fault fires
	errno Errno
}

// ArmFault arms a one-shot fault on the next invocation of fn on the
// component. Faults trigger in both message-passing and vanilla modes;
// in vanilla mode a crash takes down the whole image (there is no
// component boundary to contain it), which is exactly the baseline
// behaviour the paper's recovery comparison needs.
func (rt *Runtime) ArmFault(component, fn string, kind FaultKind) error {
	return rt.ArmFaultSpec(component, fn, FaultSpec{Kind: kind})
}

// ArmFaultSpec arms a fault described by spec on component.fn. fn may be
// AnyFunction ("*") to fire on the next invocation of any exported
// function. Arming an unknown component or function fails with an error
// that lists the valid targets, so campaign misconfiguration is
// self-diagnosing.
func (rt *Runtime) ArmFaultSpec(component, fn string, spec FaultSpec) error {
	c, ok := rt.comps[component]
	if !ok {
		return &UnknownComponentError{Name: component, Known: rt.Components()}
	}
	if fn != AnyFunction {
		if _, ok := c.exports[fn]; !ok {
			return &UnknownFunctionError{Component: component, Fn: fn, Known: rt.Exports(component)}
		}
	}
	switch spec.Kind {
	case FaultCrash, FaultHang, FaultErrno:
	default:
		return fmt.Errorf("core: unknown fault kind %v", spec.Kind)
	}
	if spec.After < 1 {
		spec.After = 1
	}
	if spec.Errno == "" {
		spec.Errno = EIO
	}
	rt.armedMu.Lock()
	defer rt.armedMu.Unlock()
	if rt.armed == nil {
		rt.armed = make(map[faultSite]*armedFault)
	}
	rt.armed[faultSite{component, fn}] = &armedFault{site: component + "." + fn, kind: spec.Kind, count: spec.After, errno: spec.Errno}
	rt.stats.armedFaults.Store(int32(len(rt.armed)))
	return nil
}

// PendingFaults lists the armed faults that have not fired yet, as
// "component.fn" keys in sorted order. Campaigns use it to tell a
// survived fault from one that never triggered.
func (rt *Runtime) PendingFaults() []string {
	rt.armedMu.Lock()
	defer rt.armedMu.Unlock()
	out := make([]string, 0, len(rt.armed))
	for _, f := range rt.armed {
		out = append(out, f.site)
	}
	sort.Strings(out)
	return out
}

// checkFault fires an armed fault for the invocation, if any. A non-nil
// error means the invocation must not execute and must return that error
// instead (the FaultErrno transient-error path).
func (rt *Runtime) checkFault(ctx *Ctx, component, fn string) error {
	if ctx.InReplay() || rt.stats.armedFaults.Load() == 0 {
		return nil
	}
	// Resolve under the lock, then act outside it: a crash fault panics and
	// a hang fault never returns, and neither may hold armedMu while other
	// shards' handlers consult their own armed entries.
	rt.armedMu.Lock()
	site := faultSite{component, fn}
	f, ok := rt.armed[site]
	if !ok {
		site.fn = AnyFunction
		if f, ok = rt.armed[site]; !ok {
			rt.armedMu.Unlock()
			return nil
		}
	}
	f.count--
	if f.count > 0 {
		rt.armedMu.Unlock()
		return nil
	}
	delete(rt.armed, site)
	rt.stats.armedFaults.Store(int32(len(rt.armed)))
	rt.armedMu.Unlock()
	if tr := rt.tracer; tr != nil {
		tr.Instant(ctx.span, trace.KindFault, component, fn, f.kind.String())
	}
	switch f.kind {
	case FaultCrash:
		panic(fmt.Sprintf("injected %v in %s.%s", f.kind, component, fn))
	case FaultHang:
		for {
			ctx.Sleep(10 * time.Second)
		}
	case FaultErrno:
		return f.errno
	}
	return nil
}

// ComponentHeap returns a component's arena allocator, for fault
// injection (leaks) and layout probes. A restore swaps in a fresh
// allocator, so the one returned is valid until the component's next
// restore: take it again after a reboot.
func (rt *Runtime) ComponentHeap(name string) (*mem.Buddy, bool) {
	c, ok := rt.comps[name]
	if !ok || c.heap == nil {
		return nil, false
	}
	return c.heap, true
}
