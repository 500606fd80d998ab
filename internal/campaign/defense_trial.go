package campaign

import (
	"fmt"
	"strings"
	"time"

	"vampos/internal/ckpt"
	"vampos/internal/core"
	"vampos/internal/defense"
	"vampos/internal/faults"
	"vampos/internal/unikernel"
)

// Defense trial shape. The seal cadence is tightened below the checkpoint
// cadence so a tamper is caught within a handful of calls and at most one
// image postdates the watermark; the detect wait bounds how long the trial
// waits for the attack-induced reboot before judging it absent.
const (
	defenseSealEvery  = 4
	defenseCkptEvery  = 8
	defenseHistory    = 4
	defenseDetectWait = 2 * time.Second
)

// attack is the three attack-shaped kinds, run with the defense pipeline
// armed: deliver the attack (arena tamper, corrupted host frame, or PKRU
// misuse), keep the workload running while detection and taint-aware
// recovery happen underneath, force a second reboot of the attacked
// component so consecutive arena-layout fingerprints can be compared, and
// judge with the defense oracles.
type attack struct {
	baseKind
	injected    bool   // the attack was actually delivered
	efaults     int    // EFAULT replies observed on xdomtouch strikes
	intact      bool   // xdomtouch: victim witness unharmed afterwards
	faultsDelta uint64 // xdomtouch: protection faults raised by strikes
	rerandErr   error  // error from the fingerprint-comparison reboot
}

func (k *attack) configure(t *trial, cc *core.Config, _ Options) {
	t.after = 0 // an attack is delivered, not armed at an invocation ordinal
	// The taint-aware rollback needs an image history to land on: a
	// cadence is part of the configuration under test, whatever the
	// campaign's flags.
	if !cc.Ckpt.Enabled() {
		cc.Ckpt = ckpt.Policy{EveryCalls: defenseCkptEvery}
	}
	cc.Defense = defense.Policy{
		Enabled:        true,
		RebootOnFault:  t.cell.Fault == FaultXDomTouch,
		SealEveryCalls: defenseSealEvery,
		HistoryDepth:   defenseHistory,
		Seed:           t.seed,
	}
}

func (k *attack) register(t *trial) error {
	if t.cell.Fault != FaultXDomTouch {
		return nil
	}
	return t.inst.Runtime().Register(faults.NewSaboteur())
}

func (k *attack) armPhase() string { return "attack" }

// arm delivers the cell's attack from the controller thread.
func (k *attack) arm(t *trial, s *unikernel.Sys) error {
	rt := t.inst.Runtime()
	comp := t.cell.Component
	switch t.cell.Fault {
	case FaultTamper:
		// Host-side byte flip inside the component's private arena: never
		// legitimate mid-run, so the next seal verification must break.
		heap, ok := rt.ComponentHeap(comp)
		if !ok {
			return fmt.Errorf("no heap for victim %q", comp)
		}
		addr, err := heap.Alloc(32)
		if err != nil {
			return err
		}
		if err := rt.Memory().HostWrite(addr, []byte{0xDE, 0xAD, 0xBE, 0xEF}); err != nil {
			return err
		}
	case FaultBadFrame:
		// Corrupt the next 9P response in flight, then force a round trip
		// with a probe file. The hardened decoder rejects the frame, the
		// defensive crash reboots 9PFS, and the probe syscalls — like any
		// in-flight call at crash time — must come back clean: every error
		// here counts against the service budget.
		t.inst.Host().Corrupt9PResponses(1)
		fd, err := s.Open("/defense-probe", unikernel.OCreate|unikernel.OWronly|unikernel.OTrunc)
		if err != nil {
			t.errs++
		} else {
			if _, err := s.Write(fd, []byte("probe")); err != nil {
				t.errs++
			}
			if err := s.Fsync(fd); err != nil {
				t.errs++
			}
			if err := s.Close(fd); err != nil {
				t.errs++
			}
		}
	case FaultXDomTouch:
		// Two PKRU-misuse strikes from the saboteur into the victim's
		// domain. Each must be confined (EFAULT, witness intact) and — with
		// RebootOnFault armed — answered by a reboot of the offender, giving
		// the fingerprint oracle its two saboteur incarnations.
		heap, ok := rt.ComponentHeap(comp)
		if !ok {
			return fmt.Errorf("no heap for victim %q", comp)
		}
		victimAddr, err := heap.Alloc(64)
		if err != nil {
			return err
		}
		// The witness is a read snapshot, not a host write: under defense a
		// host write into the victim's sealed arena would itself be detected
		// as tampering and reboot the victim, muddying the verdict.
		memObj := rt.Memory()
		witness := make([]byte, 16)
		if err := memObj.HostRead(victimAddr, witness); err != nil {
			return err
		}
		faults0 := memObj.Faults()
		strike := func() {
			_, werr := s.Ctx().Call("saboteur", "wild_write", uint64(victimAddr), 0xFF)
			if werr != nil && strings.Contains(werr.Error(), "EFAULT") {
				k.efaults++
			} else {
				t.errs++
			}
		}
		strike()
		if !waitReboots(s, t, 1) {
			return fmt.Errorf("no punitive reboot after first strike")
		}
		strike()
		if !waitReboots(s, t, 2) {
			return fmt.Errorf("no punitive reboot after second strike")
		}
		got := make([]byte, len(witness))
		if err := memObj.HostRead(victimAddr, got); err != nil {
			return err
		}
		k.intact = string(got) == string(witness)
		k.faultsDelta = memObj.Faults() - faults0
	}
	k.injected = true
	return nil
}

// afterRun gives the fingerprint oracle its two incarnations to compare:
// once the attack-induced reboot has landed, rejuvenate the attacked
// component proactively for the second sample. (A cross-domain touch
// already got two punitive reboots.)
func (k *attack) afterRun(t *trial, s *unikernel.Sys) {
	if t.cell.Fault == FaultXDomTouch {
		return
	}
	if waitReboots(s, t, 1) {
		k.rerandErr = s.Reboot(t.cell.Component)
	} else {
		k.rerandErr = fmt.Errorf("attack-induced reboot never happened")
	}
}

// waitReboots sweeps until the runtime has recorded at least n reboots,
// bounded by the detect wait and the trial deadline. The sweeps keep
// quiescent points coming for components off the workload's hot path.
func waitReboots(s *unikernel.Sys, t *trial, n int) bool {
	rt := t.inst.Runtime()
	deadline := s.Elapsed() + defenseDetectWait
	for len(rt.Reboots()) < n {
		if s.Elapsed() > deadline || t.pastDeadline(s) {
			return false
		}
		t.sweep(s)
		s.Sleep(5 * time.Millisecond)
	}
	return true
}

// judge runs the defense oracles: the attack was detected and answered,
// recovery rolled back past the taint watermark, the blast radius stayed
// at the attacked component, consecutive incarnations got distinct arena
// layouts, and the application — checked against its host shadow — came
// through consistent.
func (k *attack) judge(j *judgement) {
	cell, st, reboots := j.t.cell, j.st, j.reboots
	// The component that should pay with reboots: the attacked one, or —
	// for the cross-domain touch — the offender, never the victim.
	attacker := cell.Component
	if cell.Fault == FaultXDomTouch {
		attacker = "saboteur"
	}
	ac, _ := j.rt.ComponentStats(attacker)
	attackerGroup := ac.Group

	switch cell.Fault {
	case FaultTamper:
		j.check("attack-triggered", k.injected && st.TamperDetections >= 1,
			"injected=%v tamperDetections=%d (want a seal break)", k.injected, st.TamperDetections)
		// Taint-aware rollback: the tamper reboot must carry a watermark
		// and must have landed on an image strictly predating it.
		rolled, detail := false, "no reboot of the tainted group carries a watermark"
		for _, r := range reboots {
			if r.Group == j.target && r.TaintWatermark > 0 {
				rolled = r.RestoredEpochSeq < r.TaintWatermark
				detail = fmt.Sprintf("restored epoch seq %d vs watermark %d (quarantined %d)",
					r.RestoredEpochSeq, r.TaintWatermark, r.QuarantinedImages)
				break
			}
		}
		j.check("taint-rollback", rolled && st.TaintRollbacks >= 1,
			"%s; taintRollbacks=%d", detail, st.TaintRollbacks)
	case FaultBadFrame:
		crashed := false
		for _, r := range reboots {
			if r.Group == j.target && strings.Contains(r.Reason, "corrupted host frame") {
				crashed = true
			}
		}
		corrupted := j.t.inst.Host().ResponsesCorrupted
		j.check("attack-triggered", k.injected && corrupted >= 1 && crashed,
			"injected=%v corrupted=%d defensiveCrash=%v (reboots=%+v)",
			k.injected, corrupted, crashed, rebootReasons(reboots))
	case FaultXDomTouch:
		j.check("attack-triggered", k.injected && k.efaults == 2 && st.PKRUBreaches >= 2,
			"injected=%v efaults=%d breaches=%d (want both strikes confined and flagged)",
			k.injected, k.efaults, st.PKRUBreaches)
		j.check("confinement", k.intact && k.faultsDelta >= 2,
			"intact=%v protectionFaults=%d (want witness unharmed, both strikes faulted)",
			k.intact, k.faultsDelta)
	}

	// Containment: exactly the attack-induced reboot plus the proactive
	// fingerprint one (or the two punitive ones), all of the attacker's
	// group, every restore clean — and for the cross-domain touch the
	// victim must never have rebooted at all.
	contained, seen := j.confined(attackerGroup, 2)
	detail := fmt.Sprintf("%s (want exactly 2 of group %q)", seen, attackerGroup)
	if cell.Fault == FaultXDomTouch {
		vs, _ := j.rt.ComponentStats(cell.Component)
		contained = contained && vs.Reboots == 0
		detail += fmt.Sprintf("; victim %q reboots=%d (want 0)", cell.Component, vs.Reboots)
	}
	j.check("containment", contained, "%s", detail)

	// Re-randomize: each of the attacker's incarnations must expose a
	// fresh, nonzero arena-layout fingerprint.
	fps := memberFingerprints(reboots, attackerGroup, attacker)
	rerand := len(fps) >= 2 && k.rerandErr == nil
	for i, fp := range fps {
		if fp == 0 || (i > 0 && fp == fps[i-1]) {
			rerand = false
		}
	}
	j.check("re-randomize", rerand, "fingerprints=%v rerandErr=%v (want >= 2, nonzero, consecutive distinct)",
		fps, k.rerandErr)

	// The attacks judge the image a recovery chose with their own
	// oracles, so the checkpoint oracle only asks that capture never fail.
	j.service()
	j.checkpoint(false)
	j.invariants()
	j.traceComplete()
}

// memberFingerprints extracts one component's layout fingerprint from
// each reboot record of its group, in reboot order.
func memberFingerprints(reboots []core.RebootRecord, group, member string) []uint64 {
	var fps []uint64
	for _, r := range reboots {
		if r.Group != group {
			continue
		}
		for i, c := range r.Components {
			if c == member && i < len(r.LayoutFingerprints) {
				fps = append(fps, r.LayoutFingerprints[i])
			}
		}
	}
	return fps
}

// rebootReasons summarises reboot records for oracle detail strings.
func rebootReasons(recs []core.RebootRecord) []string {
	var out []string
	for _, r := range recs {
		out = append(out, r.Group+": "+r.Reason)
	}
	return out
}
