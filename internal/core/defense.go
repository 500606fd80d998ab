package core

import (
	"fmt"
	"slices"

	"vampos/internal/defense"
	"vampos/internal/msg"
	"vampos/internal/sched"
	"vampos/internal/trace"
)

// This file is the runtime half of the active-defense pipeline
// (internal/defense holds the policy half): detect → watermark →
// taint-aware rollback → re-randomize. Detection has two sources — the
// arena seal below (host-boundary tampering) and the replay return check
// (the replay stage, recovery.go) — both of which stamp a taint watermark
// that the image-selection stage honours.

// maybeDefense verifies due arena seals at a group quiescent point (the
// worker calls it between inbound calls). On a broken seal it submits a
// tamper item to the message thread and returns true: the worker must
// die, exactly like a crash, and the message thread drives the
// taint-aware reboot.
func (rt *Runtime) maybeDefense(t *sched.Thread, g *group) bool {
	p := rt.cfg.Defense
	if !p.Enabled || g.rebooting || g.failedTwice {
		return false
	}
	for _, c := range g.members {
		s := c.images
		if s == nil {
			continue
		}
		if s.seal == nil {
			rt.captureSeal(c)
			continue
		}
		s.sealCalls++
		if s.sealCalls < p.SealEveryCalls {
			continue
		}
		s.sealCalls = 0
		cur, err := rt.memry.HostVersions(c.heapBase, c.heapPages)
		if err != nil {
			continue
		}
		if s.seal.Verify(cur) {
			// Clean: every call up to this quiescent point ran against an
			// untampered arena. Advance the seal so a later break taints
			// only the window after this verification.
			rt.captureSeal(c)
			continue
		}
		w := s.seal.Watermark()
		rt.submitFrom(t, mqItem{kind: mqTamper, grp: g, comp: c, seq: w, reason: "seal"})
		return true
	}
	return false
}

// captureSeal stamps the component's arena at a quiescent point. Seq is
// the highest inbound seq the arena already reflects — executed calls
// top out at lastExecSeq, retained records at MaxCompletedSeq, truncated
// ones at EpochSeq — so a later break taints exactly the calls after
// this point.
func (rt *Runtime) captureSeal(c *component) {
	stamps, err := rt.memry.HostVersions(c.heapBase, c.heapPages)
	if err != nil {
		return
	}
	lg := c.domain.Log()
	seq := c.lastExecSeq
	if mc := lg.MaxCompletedSeq(); mc > seq {
		seq = mc
	}
	if es := lg.EpochSeq(); es > seq {
		seq = es
	}
	c.images.seal = &defense.Seal{Stamps: stamps, Seq: seq}
	c.images.sealCalls = 0
}

// handleTamper runs on the message thread when a seal broke: stamp the
// taint watermark, count the detection, and begin a reboot whose restore
// will roll back past the watermark. Tampering detected while already
// recovering fail-stops the group, like any failure then.
func (rt *Runtime) handleTamper(g *group, victim *component, watermark uint64, detector string) {
	rt.stats.tampers.Add(1)
	rt.detect(victim, 0, "tamper", fmt.Sprintf("detector=%s watermark=%d", detector, watermark))
	rt.stampTaint(victim, defense.Taint{Watermark: watermark, Detector: detector})
	if g.failedTwice || g.rebooting {
		rt.failStop(g, "fail-stop: tamper during recovery")
		return
	}
	rt.beginRecovery(g, nil, "", "tamper: "+detector, false, 0)
}

// handleBreach runs on the message thread after a handler raised
// protection faults with RebootOnFault set: the PKRU misuse was confined
// by interposition (the access never landed), but the offender is now
// suspect and gets a fresh — re-randomized — incarnation. The reply was
// already delivered, so callers observe the EFAULT, not the reboot.
func (rt *Runtime) handleBreach(g *group, offender *component) {
	if g.failedTwice || g.rebooting {
		return
	}
	rt.stats.breaches.Add(1)
	rt.detect(offender, 0, "pkru-misuse", "protection fault raised by handler; rebooting offender")
	rt.beginRecovery(g, nil, "", "pkru-misuse", false, 0)
}

// stampTaint merges a detection into the component's pending taint,
// keeping the earliest watermark. Returns whether anything tightened.
func (rt *Runtime) stampTaint(c *component, t defense.Taint) bool {
	s := c.images
	if s.taint == nil {
		s.taint = &defense.Taint{}
	}
	return s.taint.Tighten(t)
}

// stampDivergenceTaint turns a replay divergence into a taint watermark
// on the diverged member, enabling a rollback retry. It returns false —
// no retry — when defense is off, the component has no image history,
// the divergence carries no seq, or the watermark does not strictly
// tighten the existing taint (which guarantees retry termination: each
// retry rolls back strictly further).
func (rt *Runtime) stampDivergenceTaint(g *group, de *ReplayDivergenceError) bool {
	if !rt.cfg.Defense.Enabled || de.Seq == 0 {
		return false
	}
	c := g.member(de.Component)
	if c == nil || c.images == nil {
		return false
	}
	if !rt.stampTaint(c, defense.Taint{Watermark: de.Seq, Detector: "divergence"}) {
		return false
	}
	rt.stats.tampers.Add(1)
	rt.tracer.Instant(0, trace.KindDetect, c.desc.Name, "tamper", fmt.Sprintf("detector=divergence watermark=%d", de.Seq))
	return true
}

// archiveTruncated retains decoded views of the records a truncation is
// about to drop, then trims the archive to what retained images can
// still need: records at or below the oldest restorable image's epoch
// seq can never be part of any replay tail again.
func (s *imageStore) archiveTruncated(views []msg.RecordView, truncSeq uint64) {
	for _, v := range views {
		if v.Seq <= truncSeq {
			s.archive = append(s.archive, v)
		}
	}
	if min, ok := s.hist.OldestEpochSeq(); ok {
		// DeleteFunc zeroes the vacated tail, so the dropped views'
		// payloads can be collected.
		s.archive = slices.DeleteFunc(s.archive, func(v msg.RecordView) bool { return v.Seq <= min })
	}
}

// DefenseEnabled reports whether the active-defense pipeline is armed.
// Boundary components consult it to pick their reaction to a malformed
// host frame: under defense a corrupted frame is treated as an attack
// (crash, reboot, retry transparently); without it, a typed errno.
func (rt *Runtime) DefenseEnabled() bool { return rt.cfg.Defense.Enabled }
