package campaign

import (
	"fmt"
	"strings"
	"time"

	"vampos/internal/aging"
	"vampos/internal/core"
	"vampos/internal/faults"
	"vampos/internal/trace"
	"vampos/internal/unikernel"
)

// Leak- and aging-trial shape. The leak is one step the trial clears with
// a proactive reboot. The aging leak drips agingLeakStep bytes every
// agingLeakPause of virtual time (an ~8 MB/s slope, well above the
// default policy's threshold), and the trial waits up to agingWait for
// the adaptive controller to react before judging.
const (
	leakBytes = 128 << 10
	leakBlock = 4 << 10

	agingLeakStep  = 8 << 10
	agingLeakTotal = 128 << 10
	agingLeakPause = time.Millisecond
	agingWait      = 2 * time.Second
)

// armedFault is crash, hang and errno: spec armed at the cell's fault
// site, deferred to its after-th invocation. An errno must surface as a
// plain error without setting recovery off; a crash or hang must be
// detected in time and reboot the target's group alone.
type armedFault struct {
	baseKind
	spec core.FaultSpec
}

func (k *armedFault) arm(t *trial, _ *unikernel.Sys) error { return armSite(t, k.spec) }

func (k *armedFault) judge(j *judgement) {
	fault := j.t.cell.Fault
	j.fired("containment", "detection-latency", "trace-complete")
	if fault == FaultErrno {
		j.transient()
		j.instanceTail()
		return
	}
	ok, seen := j.confined(j.target, 0)
	j.check("containment", ok, "%s (want only group %q)", seen, j.target)
	recoveries := trace.Recoveries(j.events)
	bound := 50 * time.Millisecond
	if fault == FaultHang {
		bound = trialHangThreshold + 3*trialWatchdogPeriod
	}
	ok = len(recoveries) == 1 &&
		recoveries[0].Detected > 0 &&
		recoveries[0].Detected-recoveries[0].Fault <= bound
	detail := fmt.Sprintf("recovery chains=%d", len(recoveries))
	if len(recoveries) == 1 {
		detail = fmt.Sprintf("detected %v after fault (bound %v)",
			recoveries[0].Detected-recoveries[0].Fault, bound)
	}
	j.check("detection-latency", ok, "%s", detail)
	j.instanceTail()
}

// leakFault leaks a block of the target's heap from the controller, then
// rejuvenates it: the proactive component reboot that clears aging
// (§VII-D). VIRTIO refuses that reboot — the expected-unrecoverable path.
type leakFault struct {
	baseKind
	before, after core.ComponentStats
	rebootErr     error
	done          bool
}

func (k *leakFault) arm(t *trial, s *unikernel.Sys) error {
	comp := t.cell.Component
	rt := t.inst.Runtime()
	before, _ := rt.ComponentStats(comp)
	if _, err := faults.NewInjector(rt).LeakBytes(comp, leakBytes, leakBlock); err != nil {
		return err
	}
	k.before, _ = rt.ComponentStats(comp)
	if k.before.Heap.AllocatedBytes <= before.Heap.AllocatedBytes {
		return fmt.Errorf("leak did not grow %s's heap", comp)
	}
	k.rebootErr = s.Reboot(comp)
	k.after, _ = rt.ComponentStats(comp)
	k.done = true
	return nil
}

func (k *leakFault) judge(j *judgement) {
	cell := j.t.cell
	if cell.Expected {
		// VIRTIO refuses the proactive reboot; nothing must reboot.
		j.check("containment", len(j.reboots) == 0, "unrebootable target still rebooted: %d", len(j.reboots))
		j.check("rejuvenation", k.done && k.rebootErr != nil,
			"proactive reboot of unrebootable %s unexpectedly succeeded", cell.Component)
	} else {
		ok, seen := j.confined(j.target, 1)
		j.check("containment", ok, "%s (want exactly group %q)", seen, j.target)
		j.check("rejuvenation", k.done && k.rebootErr == nil && k.after.Heap.AllocatedBytes < k.before.Heap.AllocatedBytes,
			"reboot err=%v, heap %d -> %d bytes", k.rebootErr, k.before.Heap.AllocatedBytes, k.after.Heap.AllocatedBytes)
	}
	j.instanceTail()
}

// agingFault drips a leak while the adaptive rejuvenation controller
// watches the target's leak slope: any reboot must come from the
// sensor, not from the trial.
type agingFault struct {
	baseKind
	before, after core.ComponentStats
	stats         aging.Stats
	statsOK       bool
	done          bool
}

func (k *agingFault) configure(t *trial, cc *core.Config, opts Options) {
	// Boot starts the adaptive controller; the trial only arms the
	// leak and observes.
	cc.Aging = trialAgingPolicy()
	cc.AgingTargets = []string{t.cell.Component}
}

func (k *agingFault) arm(t *trial, s *unikernel.Sys) error {
	comp := t.cell.Component
	rt := t.inst.Runtime()
	inj := faults.NewInjector(rt)
	before, _ := rt.ComponentStats(comp)
	// Drip the leak so the controller's sample window observes a
	// slope, rather than a step it could only see once. The
	// controller may fire mid-drip (the whole point), so the "before"
	// observation is the peak allocation seen during the drip, not
	// the end state.
	k.before = before
	for leaked := int64(0); leaked < agingLeakTotal; leaked += agingLeakStep {
		if _, err := inj.LeakBytes(comp, agingLeakStep, agingLeakStep); err != nil {
			return err
		}
		if cs, _ := rt.ComponentStats(comp); cs.Heap.AllocatedBytes > k.before.Heap.AllocatedBytes {
			k.before = cs
		}
		s.Sleep(agingLeakPause)
	}
	if k.before.Heap.AllocatedBytes <= before.Heap.AllocatedBytes {
		return fmt.Errorf("aging leak did not grow %s's heap", comp)
	}
	// Wait (bounded, virtual time) for the sensor-driven controller
	// to act: a successful rejuvenation, or — for unrebootable
	// targets — a refused one that armed backoff.
	deadline := s.Elapsed() + agingWait
	for s.Elapsed() < deadline {
		cs, _ := rt.ComponentStats(comp)
		if st := cs.Aging; st != nil && (st.Rejuvenations > 0 || st.Failures > 0) {
			break
		}
		s.Sleep(trialAgingPolicy().SamplePeriod)
	}
	k.after, _ = rt.ComponentStats(comp)
	if k.after.Aging != nil {
		k.stats, k.statsOK = *k.after.Aging, true
	}
	k.done = true
	return nil
}

func (k *agingFault) judge(j *judgement) {
	if j.t.cell.Expected {
		// The controller must keep retrying-with-backoff, never
		// actually rebooting the unrebootable target.
		j.check("containment", len(j.reboots) == 0, "unrebootable target still rebooted: %d", len(j.reboots))
		j.check("rejuvenation", k.done && k.statsOK && k.stats.Rejuvenations == 0 && k.stats.Failures > 0,
			"done=%v statsOK=%v rejuvenations=%d failures=%d (want refused attempts only)",
			k.done, k.statsOK, k.stats.Rejuvenations, k.stats.Failures)
		j.instanceTail()
		return
	}
	ok, seen := j.confined(j.target, 0)
	j.check("containment", ok, "%s (want only group %q)", seen, j.target)
	// Adaptive rejuvenation: the reboot must be sensor-triggered (the
	// aging monitor names the cause, every reboot record carries
	// reason "rejuvenation" — no wall timer involved), the leak must
	// be reclaimed, and fragmentation must stay bounded afterwards.
	sensorOnly := true
	for _, r := range j.reboots {
		if r.Reason != "rejuvenation" {
			sensorOnly = false
		}
	}
	j.check("rejuvenation", k.done && k.statsOK &&
		k.stats.Rejuvenations > 0 &&
		k.stats.LastCause == "leak-slope" &&
		sensorOnly &&
		k.after.Heap.AllocatedBytes < k.before.Heap.AllocatedBytes &&
		k.after.Heap.ExternalFragmentation() <= 0.5,
		"done=%v statsOK=%v rejuvenations=%d cause=%q sensorOnly=%v heap %d -> %d bytes frag %.2f",
		k.done, k.statsOK, k.stats.Rejuvenations, k.stats.LastCause,
		sensorOnly, k.before.Heap.AllocatedBytes, k.after.Heap.AllocatedBytes, k.after.Heap.ExternalFragmentation())
	j.instanceTail()
}

// wildWrite has a registered saboteur store into the target's heap: the
// store must be confined (EFAULT, witness intact, a protection fault
// raised) and set no recovery off.
type wildWrite struct {
	baseKind
	efault      bool
	intact      bool
	faultsDelta uint64
}

func (k *wildWrite) register(t *trial) error {
	return t.inst.Runtime().Register(faults.NewSaboteur())
}

func (k *wildWrite) arm(t *trial, s *unikernel.Sys) error {
	rt := t.inst.Runtime()
	heap, ok := rt.ComponentHeap(t.cell.Component)
	if !ok {
		return fmt.Errorf("no heap for victim %q", t.cell.Component)
	}
	victimAddr, err := heap.Alloc(64)
	if err != nil {
		return err
	}
	memObj := rt.Memory()
	witness := []byte("precious")
	if err := memObj.HostWrite(victimAddr, witness); err != nil {
		return err
	}
	faults0 := memObj.Faults()
	_, werr := s.Ctx().Call("saboteur", "wild_write", uint64(victimAddr), 0xFF)
	k.efault = werr != nil && strings.Contains(werr.Error(), "EFAULT")
	got := make([]byte, len(witness))
	if err := memObj.HostRead(victimAddr, got); err != nil {
		return err
	}
	k.intact = string(got) == string(witness)
	k.faultsDelta = memObj.Faults() - faults0
	return nil
}

func (k *wildWrite) judge(j *judgement) {
	j.transient()
	j.check("confinement", k.efault && k.intact && k.faultsDelta > 0,
		"efault=%v intact=%v protectionFaults=%d", k.efault, k.intact, k.faultsDelta)
	j.instanceTail()
}
