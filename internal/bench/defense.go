package bench

import (
	"bytes"
	"fmt"
	"time"

	"vampos/internal/ckpt"
	"vampos/internal/defense"
	"vampos/internal/unikernel"
)

// Defense figure shape. The seal window is wider than the checkpoint
// cadence on purpose: the attacker's bytes make it into at least one
// checkpoint image before the next seal verification fires, which is
// exactly the case the taint-aware rollback exists for — the newest
// image can no longer be trusted.
const (
	defSealEvery = 8
	defCkptEvery = 4
	defHistory   = 8
	defSeed      = 42
	defRecord    = 8 // bytes per workload record; fixed so Pread can verify
	defDetectCap = 5 * time.Second
)

// DefenseArm is one measured recovery policy against the identical
// host-boundary arena tamper.
type DefenseArm struct {
	Arm string // "recovery-to-latest", "taint-aware"

	// Detected reports whether the seal machinery flagged the tamper
	// (always false with the pipeline off: the byte flip is silent).
	Detected bool

	// Taint bookkeeping from the recovery's reboot record. Zero for the
	// plain arm: a restore-to-latest carries no watermark and
	// quarantines nothing.
	TaintWatermark   uint64
	RestoredEpochSeq uint64
	Quarantined      int

	Replayed        int           // log entries replayed by the recovery
	RecoveryVirtual time.Duration // virtual duration of the recovery

	// CorruptionSurvived is the figure's headline: did the attacker's
	// bytes outlive the recovery? The plain arm answers with direct
	// evidence (the tampered address still reads back the planted bytes
	// after the reboot — the newest image captured them). The
	// taint-aware arm answers structurally: the restored image's epoch
	// seq lands strictly before the taint watermark, so the tampered
	// arena cannot be part of the restored state (and the re-randomized
	// layout retired the attacker's address on top).
	CorruptionSurvived bool

	// WarmDataIntact reports that every pre-attack workload record reads
	// back correctly after recovery.
	WarmDataIntact bool

	// Arena-layout fingerprints of the attacked component before the
	// attack and after recovery. The taint-aware arm re-randomizes, so
	// they must differ; the plain arm reboots into the same layout.
	FingerprintBefore uint64
	FingerprintAfter  uint64
}

// DefenseResult is the security-recovery figure: the same arena tamper
// against the same VFS workload, recovered once by the paper's plain
// restore-to-latest and once by the defense pipeline (detect →
// watermark → taint-aware rollback → re-randomize). The reproduced
// claim is qualitative: a recovery mechanism that trusts its newest
// checkpoint resurrects the attacker's bytes; one that rolls back past
// the taint watermark does not, at the price of quarantined images and
// a replayed un-tainted tail.
type DefenseResult struct {
	WarmWrites int // workload records written before the attack
	TailWrites int // records attempted after the attack (plain arm)

	Plain DefenseArm // defense off: component reboot onto the newest image
	Taint DefenseArm // defense on: automatic taint-aware recovery
}

// RunDefense measures both arms. Each arm boots its own instance, runs
// the identical warm workload, takes the identical host-side byte flip
// in the VFS arena, and recovers by its own policy.
func RunDefense(scale Scale) (*DefenseResult, error) {
	res := &DefenseResult{
		WarmWrites: scale.DefenseWarmWrites,
		TailWrites: scale.DefenseTailWrites,
	}
	arms := []struct {
		arm         *DefenseArm
		withDefense bool
	}{
		{&res.Plain, false},
		{&res.Taint, true},
	}
	for _, a := range arms {
		m, err := runDefenseArm(scale, a.withDefense)
		if err != nil {
			return nil, err
		}
		*a.arm = m
	}
	return res, nil
}

// runDefenseArm boots a DaS instance with incremental checkpoints (and,
// for the taint arm, the defense pipeline), warms the workload, plants
// the tamper, and recovers: the plain arm by an operator-style
// component reboot after the tail writes, the taint arm by whatever the
// pipeline does on its own once a seal verification fires.
func runDefenseArm(scale Scale, withDefense bool) (DefenseArm, error) {
	cc := coreConfig(DaS)
	cc.LogShrinkThreshold = 1 << 30 // park compaction: replay counts are part of the figure
	cc.Ckpt = ckpt.Policy{EveryCalls: defCkptEvery}
	if withDefense {
		cc.Defense = defense.Policy{
			Enabled:        true,
			SealEveryCalls: defSealEvery,
			HistoryDepth:   defHistory,
			Seed:           defSeed,
		}
	}
	arm := DefenseArm{Arm: "recovery-to-latest"}
	if withDefense {
		arm.Arm = "taint-aware"
	}
	err := runInstance(unikernel.Config{Core: cc, FS: true}, nil, func(s *unikernel.Sys, inst *unikernel.Instance) error {
		rt := inst.Runtime()
		record := func(i int) []byte { return []byte(fmt.Sprintf("%07d\n", i)) }

		fd, err := s.Create("/defense.dat")
		if err != nil {
			return err
		}
		for i := 0; i < scale.DefenseWarmWrites; i++ {
			if _, err := s.Write(fd, record(i)); err != nil {
				return err
			}
		}
		if err := s.Fsync(fd); err != nil {
			return err
		}
		// Settle: drive enough quiescent points that a clean seal lands
		// after the last warm write. The taint watermark then provably
		// postdates the whole warm payload, so the rollback may not cost
		// a single pre-attack record.
		for i := 0; i < 2*defSealEvery; i++ {
			if _, _, err := s.Stat("/defense.dat"); err != nil {
				return err
			}
		}
		before, _ := rt.ComponentStats("vfs")
		arm.FingerprintBefore = before.LayoutFingerprint

		// The attack: a host-side byte flip inside the VFS arena. Never
		// legitimate mid-run — but without the seal machinery, perfectly
		// silent.
		heap, ok := rt.ComponentHeap("vfs")
		if !ok {
			return fmt.Errorf("no heap for vfs")
		}
		addr, err := heap.Alloc(32)
		if err != nil {
			return err
		}
		planted := []byte{0xDE, 0xAD, 0xBE, 0xEF}
		if err := rt.Memory().HostWrite(addr, planted); err != nil {
			return err
		}

		if withDefense {
			// Keep serving; the pipeline must detect and recover on its
			// own within the seal window.
			deadline := s.Elapsed() + defDetectCap
			for len(rt.Reboots()) == 0 {
				if s.Elapsed() > deadline {
					return fmt.Errorf("tamper never detected within %v", defDetectCap)
				}
				if _, err := s.Write(fd, []byte("tail....")); err != nil {
					return err
				}
				s.Sleep(time.Millisecond)
			}
		} else {
			// No detector: the workload keeps writing, checkpoints keep
			// capturing the tampered arena, and recovery is an
			// operator-style reboot onto the newest image.
			for i := 0; i < scale.DefenseTailWrites; i++ {
				if _, err := s.Write(fd, []byte("tail....")); err != nil {
					return err
				}
			}
			if err := s.Fsync(fd); err != nil {
				return err
			}
			if err := s.Reboot("vfs"); err != nil {
				return err
			}
		}

		recs := rt.Reboots()
		if len(recs) == 0 {
			return fmt.Errorf("no reboot recorded")
		}
		rec := recs[0]
		arm.Detected = rt.Stats().TamperDetections >= 1
		arm.TaintWatermark = rec.TaintWatermark
		arm.RestoredEpochSeq = rec.RestoredEpochSeq
		arm.Quarantined = rec.QuarantinedImages
		arm.Replayed = rec.ReplayedEntries
		arm.RecoveryVirtual = rec.VirtualDuration
		after, _ := rt.ComponentStats("vfs")
		arm.FingerprintAfter = after.LayoutFingerprint

		if withDefense {
			// Structural evidence: a rollback that lands strictly before
			// the watermark cannot contain the tamper (and the address
			// itself died with the re-randomized layout).
			arm.CorruptionSurvived = !(rec.TaintWatermark > 0 && rec.RestoredEpochSeq < rec.TaintWatermark)
		} else {
			// Direct evidence: read the tampered address back. The newest
			// image postdates the flip, so a restore-to-latest resurrects
			// the planted bytes.
			got := make([]byte, len(planted))
			if err := rt.Memory().HostRead(addr, got); err != nil {
				return err
			}
			arm.CorruptionSurvived = bytes.Equal(got, planted)
		}

		arm.WarmDataIntact = true
		for i := 0; i < scale.DefenseWarmWrites; i++ {
			data, err := s.Pread(fd, defRecord, int64(i*defRecord))
			if err != nil || !bytes.Equal(data, record(i)) {
				arm.WarmDataIntact = false
				break
			}
		}
		return nil
	})
	return arm, err
}

// Render produces the security-recovery figure as a table.
func (r *DefenseResult) Render() string {
	t := &table{
		title: fmt.Sprintf("Defense figure — identical VFS arena tamper, %d warm writes (DaS, ckpt every %d calls)",
			r.WarmWrites, defCkptEvery),
		headers: []string{"arm", "detected", "corruption survived", "watermark", "restored seq", "quarantined", "replayed", "recovery", "fingerprint"},
	}
	for _, a := range []DefenseArm{r.Plain, r.Taint} {
		fp := "unchanged"
		if a.FingerprintAfter != a.FingerprintBefore {
			fp = fmt.Sprintf("0x%x -> 0x%x", a.FingerprintBefore, a.FingerprintAfter)
		}
		t.addRow(a.Arm, fmt.Sprintf("%v", a.Detected), fmt.Sprintf("%v", a.CorruptionSurvived),
			fmt.Sprintf("%d", a.TaintWatermark), fmt.Sprintf("%d", a.RestoredEpochSeq),
			fmt.Sprintf("%d", a.Quarantined), fmt.Sprintf("%d", a.Replayed),
			fmtDur(a.RecoveryVirtual), fp)
	}
	t.addNote("recovery-to-latest trusts its newest checkpoint image: the tamper is silent, and the planted bytes read back after the reboot")
	t.addNote(fmt.Sprintf("taint-aware recovery rolls back strictly past the watermark, quarantining %d tainted image(s) and re-randomizing the arena layout", r.Taint.Quarantined))
	return t.String()
}
