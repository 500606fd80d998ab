package campaign

import (
	"fmt"
	"strings"
	"time"

	"vampos/internal/ckpt"
	"vampos/internal/core"
	"vampos/internal/defense"
	"vampos/internal/faults"
	"vampos/internal/mem"
	"vampos/internal/trace"
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

// runDefenseTrial executes one attack cell with the defense pipeline
// armed: deliver the attack (arena tamper, corrupted host frame, or PKRU
// misuse), keep the workload running while detection and taint-aware
// recovery happen underneath, force a second reboot of the attacked
// component so consecutive arena-layout fingerprints can be compared, and
// judge with the defense oracles.
func runDefenseTrial(cell Cell, opts Options) (res CellResult) {
	res = CellResult{Cell: cell, TrialID: cell.ID()}
	defer func() {
		if r := recover(); r != nil {
			res.Verdict = VerdictFail
			res.Detail = fmt.Sprintf("trial panicked: %v", r)
		}
	}()
	seed := trialSeed(opts.Seed, cell.ID())
	t := &trial{cell: cell}

	cc, err := coreConfigFor(cell.Config)
	if err != nil {
		return failResult(res, err)
	}
	cc.HangThreshold = trialHangThreshold
	cc.Shards = opts.Shards
	cc.WatchdogPeriod = trialWatchdogPeriod
	cc.MaxVirtualTime = trialMaxVirtual
	// The taint-aware rollback needs an image history to land on, and the
	// divergence detector needs replay return checking; both are part of
	// the configuration under test regardless of the campaign's flags.
	t.ckpt = opts.Ckpt
	if !t.ckpt.Enabled() {
		t.ckpt = ckpt.Policy{EveryCalls: defenseCkptEvery}
	}
	cc.Ckpt = t.ckpt
	cc.ReplayRetCheck = true
	cc.Defense = defense.Policy{
		Enabled:        true,
		Rerandomize:    true,
		RebootOnFault:  cell.Fault == FaultXDomTouch,
		SealEveryCalls: defenseSealEvery,
		HistoryDepth:   defenseHistory,
		Seed:           seed,
	}

	d, err := driverFor(cell.Workload)
	if err != nil {
		return failResult(res, err)
	}
	t.profile = d.profile(unikernel.Config{Core: cc})
	inst, err := unikernel.New(t.profile)
	if err != nil {
		return failResult(res, err)
	}
	defer inst.Close()
	if cell.Fault == FaultXDomTouch {
		if err := inst.Runtime().Register(faults.NewSaboteur()); err != nil {
			return failResult(res, err)
		}
	}
	if err := d.setupHost(inst); err != nil {
		return failResult(res, err)
	}
	rec := inst.NewTracer("campaign/"+cell.ID(), trace.WithCapacity(1<<14))

	var phaseErr error
	v0 := time.Duration(0)
	runErr := inst.Run(func(s *unikernel.Sys) {
		defer s.Stop()
		v0 = s.Elapsed()
		t.deadlineV = s.Elapsed() + trialDeadline
		if phaseErr = s.StartApp(d.app()); phaseErr != nil {
			phaseErr = fmt.Errorf("app start: %w", phaseErr)
			return
		}
		if phaseErr = d.warm(s, t); phaseErr != nil {
			phaseErr = fmt.Errorf("warm phase: %w", phaseErr)
			return
		}
		if phaseErr = t.injectAttack(s, inst); phaseErr != nil {
			phaseErr = fmt.Errorf("attack: %w", phaseErr)
			return
		}
		d.run(s, t)
		if cell.Fault == FaultTamper || cell.Fault == FaultBadFrame {
			// The fingerprint oracle needs two incarnations to compare, so
			// once the attack-induced reboot has landed, rejuvenate the
			// attacked component proactively for the second sample.
			if t.waitReboots(s, inst, 1) {
				t.defRerandErr = s.Reboot(cell.Component)
			} else {
				t.defRerandErr = fmt.Errorf("attack-induced reboot never happened")
			}
		}
		s.Sleep(trialSettle)
		t.verifyErr = d.verify(s, t)
		t.finished = true
	})
	res.Virtual = inst.Runtime().Clock().Elapsed() - v0
	if runErr != nil && phaseErr == nil {
		phaseErr = runErr
	}
	events := rec.Snapshot()
	res.Reboots = len(inst.Runtime().Reboots())
	res.ClientErrs = t.errs
	res.Verdict, res.Oracles, res.Detail = judgeDefense(t, inst, events, phaseErr)
	res.recorder = rec
	return res
}

// injectAttack delivers the cell's attack from the controller thread.
func (t *trial) injectAttack(s *unikernel.Sys, inst *unikernel.Instance) error {
	rt := inst.Runtime()
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
		if err := rt.Memory().HostWrite(mem.Addr(addr), []byte{0xDE, 0xAD, 0xBE, 0xEF}); err != nil {
			return err
		}
		t.defInjected = true
		return nil
	case FaultBadFrame:
		// Corrupt the next 9P response in flight, then force a round trip
		// with a probe file. The hardened decoder rejects the frame, the
		// defensive crash reboots 9PFS, and the probe syscalls — like any
		// in-flight call at crash time — must come back clean: every error
		// here counts against the service budget.
		inst.Host().Corrupt9PResponses(1)
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
		t.defInjected = true
		return nil
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
		if err := memObj.HostRead(mem.Addr(victimAddr), witness); err != nil {
			return err
		}
		faults0 := memObj.Faults()
		strike := func() {
			_, werr := s.Ctx().Call("saboteur", "wild_write", victimAddr, 0xFF)
			if werr != nil && strings.Contains(werr.Error(), "EFAULT") {
				t.defEFaults++
			} else {
				t.errs++
			}
		}
		strike()
		if !t.waitReboots(s, inst, 1) {
			return fmt.Errorf("no punitive reboot after first strike")
		}
		strike()
		if !t.waitReboots(s, inst, 2) {
			return fmt.Errorf("no punitive reboot after second strike")
		}
		got := make([]byte, len(witness))
		if err := memObj.HostRead(mem.Addr(victimAddr), got); err != nil {
			return err
		}
		t.defIntact = string(got) == string(witness)
		t.defFaultsDelta = memObj.Faults() - faults0
		t.defInjected = true
		return nil
	default:
		return fmt.Errorf("campaign: not an attack fault %q", t.cell.Fault)
	}
}

// waitReboots sweeps until the runtime has recorded at least n reboots,
// bounded by the detect wait and the trial deadline. The sweeps keep
// quiescent points coming for components off the workload's hot path.
func (t *trial) waitReboots(s *unikernel.Sys, inst *unikernel.Instance, n int) bool {
	rt := inst.Runtime()
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

// judgeDefense runs the defense oracles: the attack was detected and
// answered, recovery rolled back past the taint watermark, the blast
// radius stayed at the attacked component, consecutive incarnations got
// distinct arena layouts, and the application — checked against its host
// shadow — came through consistent.
func judgeDefense(t *trial, inst *unikernel.Instance, events []trace.Event, phaseErr error) (Verdict, []OracleResult, string) {
	cell := t.cell
	rt := inst.Runtime()
	st := rt.Stats()
	reboots := rt.Reboots()
	targetGroup, _ := rt.GroupOf(cell.Component)
	// The component that should pay with reboots: the attacked one, or —
	// for the cross-domain touch — the offender, never the victim.
	attacker := cell.Component
	if cell.Fault == FaultXDomTouch {
		attacker = "saboteur"
	}
	attackerGroup, _ := rt.GroupOf(attacker)

	var oracles []OracleResult
	oc := func(name string, ok bool, format string, args ...any) {
		r := OracleResult{Name: name, OK: ok}
		if !ok {
			r.Detail = fmt.Sprintf(format, args...)
		}
		oracles = append(oracles, r)
	}

	switch cell.Fault {
	case FaultTamper:
		oc("attack-triggered", t.defInjected && st.TamperDetections >= 1,
			"injected=%v tamperDetections=%d (want a seal break)", t.defInjected, st.TamperDetections)
	case FaultBadFrame:
		crashed := false
		for _, r := range reboots {
			if r.Group == targetGroup && strings.Contains(r.Reason, "corrupted host frame") {
				crashed = true
			}
		}
		oc("attack-triggered", t.defInjected && inst.Host().ResponsesCorrupted >= 1 && crashed,
			"injected=%v corrupted=%d defensiveCrash=%v (reboots=%+v)",
			t.defInjected, inst.Host().ResponsesCorrupted, crashed, rebootReasons(reboots))
	case FaultXDomTouch:
		oc("attack-triggered", t.defInjected && t.defEFaults == 2 && st.PKRUBreaches >= 2,
			"injected=%v efaults=%d breaches=%d (want both strikes confined and flagged)",
			t.defInjected, t.defEFaults, st.PKRUBreaches)
	}

	if cell.Fault == FaultTamper {
		// Taint-aware rollback: the tamper reboot must carry a watermark
		// and must have landed on an image strictly predating it.
		rolled, detail := false, "no reboot of the tainted group carries a watermark"
		for _, r := range reboots {
			if r.Group == targetGroup && r.TaintWatermark > 0 {
				rolled = r.RestoredEpochSeq < r.TaintWatermark
				detail = fmt.Sprintf("restored epoch seq %d vs watermark %d (quarantined %d)",
					r.RestoredEpochSeq, r.TaintWatermark, r.QuarantinedImages)
				break
			}
		}
		oc("taint-rollback", rolled && st.TaintRollbacks >= 1,
			"%s; taintRollbacks=%d", detail, st.TaintRollbacks)
	}

	// Containment: exactly the attack-induced reboot plus the proactive
	// fingerprint one (or the two punitive ones), all of the attacker's
	// group, every restore clean — and for the cross-domain touch the
	// victim must never have rebooted at all.
	stray := strayReboots(reboots, attackerGroup)
	contained := len(reboots) == 2 && len(stray) == 0 && st.FailedRestores == 0
	detail := fmt.Sprintf("reboots=%d stray=%v failedRestores=%d (want exactly 2 of group %q)",
		len(reboots), stray, st.FailedRestores, attackerGroup)
	if cell.Fault == FaultXDomTouch {
		vs, _ := rt.ComponentStats(cell.Component)
		contained = contained && vs.Reboots == 0
		detail += fmt.Sprintf("; victim %q reboots=%d (want 0)", cell.Component, vs.Reboots)
		oc("confinement", t.defIntact && t.defFaultsDelta >= 2,
			"intact=%v protectionFaults=%d (want witness unharmed, both strikes faulted)",
			t.defIntact, t.defFaultsDelta)
	}
	oc("containment", contained, "%s", detail)

	// Re-randomize: each of the attacker's incarnations must expose a
	// fresh, nonzero arena-layout fingerprint.
	fps := memberFingerprints(reboots, attackerGroup, attacker)
	rerand := len(fps) >= 2 && t.defRerandErr == nil
	for i, fp := range fps {
		if fp == 0 || (i > 0 && fp == fps[i-1]) {
			rerand = false
		}
	}
	oc("re-randomize", rerand, "fingerprints=%v rerandErr=%v (want >= 2, nonzero, consecutive distinct)",
		fps, t.defRerandErr)

	oc("service", t.errs <= serviceBudget(cell),
		"%d client errors exceed budget %d", t.errs, serviceBudget(cell))

	oc("checkpoint", st.CheckpointErrs == 0, "checkpointErrs=%d", st.CheckpointErrs)

	invOK := phaseErr == nil && t.finished && t.verifyErr == nil && t.corrupt == 0
	oc("invariants", invOK, "phaseErr=%v finished=%v verify=%v corrupt=%d",
		phaseErr, t.finished, t.verifyErr, t.corrupt)

	oc("trace-complete", traceComplete(cell, events, len(reboots)) == nil,
		"%v", traceComplete(cell, events, len(reboots)))

	allOK := true
	var failed []string
	for _, o := range oracles {
		if !o.OK {
			allOK = false
			failed = append(failed, o.Name)
		}
	}
	out := ""
	if phaseErr != nil {
		out = phaseErr.Error()
	}
	if allOK {
		return VerdictPass, oracles, out
	}
	if out == "" {
		out = "oracle failures: " + strings.Join(failed, ", ")
	}
	return VerdictFail, oracles, out
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
