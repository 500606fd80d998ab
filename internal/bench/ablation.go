package bench

import (
	"fmt"
	"time"

	"vampos/internal/ninep"
	"vampos/internal/unikernel"
)

// AblationResult isolates the contribution of the individual VampOS
// mechanisms, the design-choice analysis DESIGN.md calls out beyond the
// paper's own configurations.
type AblationResult struct {
	// Checkpoint-based initialization (§V-E): VFS reboot with the
	// post-init snapshot vs cold re-init + replay. The paper's argument
	// for checkpointing is not speed but containment: cold re-init
	// re-invokes other components (the 9P mount), changing their state
	// mid-run. SideEffectCalls counts those restore-time invocations.
	CheckpointReboot          Stat
	ColdReboot                Stat
	CheckpointSideEffectCalls uint64
	ColdSideEffectCalls       uint64

	// Session-aware log shrinking (§V-F): reboot time as a function of
	// workload size, with shrinking on vs off. Without shrinking the
	// replay grows with history; with it the reboot stays flat.
	ShrinkOps       []int
	RebootShrinkOn  []time.Duration
	RebootShrinkOff []time.Duration
	LogLenShrinkOn  []int
	LogLenShrinkOff []int

	// Dependency-aware scheduling (§V-C): dispatches per file write.
	DispatchesRR  float64
	DispatchesDaS float64
}

// RunAblation measures all three mechanism ablations.
func RunAblation(scale Scale) (*AblationResult, error) {
	res := &AblationResult{}
	var err error
	if res.CheckpointReboot, res.CheckpointSideEffectCalls, err = measureVFSReboot(scale, false); err != nil {
		return nil, fmt.Errorf("ablation checkpoint: %w", err)
	}
	if res.ColdReboot, res.ColdSideEffectCalls, err = measureVFSReboot(scale, true); err != nil {
		return nil, fmt.Errorf("ablation cold: %w", err)
	}
	res.ShrinkOps = []int{20, 100, 400}
	for _, ops := range res.ShrinkOps {
		dOn, lOn, err := measureRebootAfterOps(ops, true)
		if err != nil {
			return nil, fmt.Errorf("ablation shrink-on %d: %w", ops, err)
		}
		dOff, lOff, err := measureRebootAfterOps(ops, false)
		if err != nil {
			return nil, fmt.Errorf("ablation shrink-off %d: %w", ops, err)
		}
		res.RebootShrinkOn = append(res.RebootShrinkOn, dOn)
		res.RebootShrinkOff = append(res.RebootShrinkOff, dOff)
		res.LogLenShrinkOn = append(res.LogLenShrinkOn, lOn)
		res.LogLenShrinkOff = append(res.LogLenShrinkOff, lOff)
	}
	if res.DispatchesRR, err = measureDispatchesPerWrite(Noop); err != nil {
		return nil, err
	}
	if res.DispatchesDaS, err = measureDispatchesPerWrite(DaS); err != nil {
		return nil, err
	}
	return res, nil
}

// measureVFSReboot times VFS reboots with or without its checkpoint and
// counts the restore-time calls that leaked into running components.
func measureVFSReboot(scale Scale, disableCheckpoint bool) (Stat, uint64, error) {
	cfg := fullProfile(coreConfig(DaS))
	cfg.VFSNoCheckpoint = disableCheckpoint
	var samples []time.Duration
	var sideEffects uint64
	err := runInstance(cfg, nil, func(s *unikernel.Sys, inst *unikernel.Instance) error {
		comp, _ := inst.Runtime().Component("9pfs")
		nineP := comp.(*ninep.Comp)
		fd, err := s.Open("/a.dat", unikernel.OCreate|unikernel.ORdwr)
		if err != nil {
			return err
		}
		for i := 0; i < 20; i++ {
			if _, err := s.Write(fd, []byte("x")); err != nil {
				return err
			}
		}
		before := nineP.MountAttempts
		for trial := 0; trial < scale.RebootTrials; trial++ {
			rec, err := rebootRecord(s, "vfs")
			if err != nil {
				return err
			}
			samples = append(samples, rec.VirtualDuration)
		}
		sideEffects = nineP.MountAttempts - before
		return nil
	})
	if err != nil {
		return Stat{}, 0, err
	}
	return NewStat(samples), sideEffects, nil
}

// measureRebootAfterOps runs N open/write/close cycles and times the
// following VFS reboot, with shrinking on or off.
func measureRebootAfterOps(ops int, shrink bool) (time.Duration, int, error) {
	cc := coreConfig(DaS)
	cc.LogShrinkEnabled = shrink
	cc.LogShrinkThreshold = 1 << 20 // isolate session shrinking from compaction
	var dur time.Duration
	var logLen int
	err := runInstance(fullProfile(cc), nil, func(s *unikernel.Sys, inst *unikernel.Instance) error {
		for i := 0; i < ops; i++ {
			fd, err := s.Open("/churn.dat", unikernel.OCreate|unikernel.OWronly)
			if err != nil {
				return err
			}
			if _, err := s.Write(fd, []byte("x")); err != nil {
				return err
			}
			if err := s.Close(fd); err != nil {
				return err
			}
		}
		cs, _ := inst.Runtime().ComponentStats("vfs")
		logLen = cs.LogLen
		rec, err := rebootRecord(s, "vfs")
		dur = rec.VirtualDuration
		return err
	})
	return dur, logLen, err
}

// measureDispatchesPerWrite counts scheduler dispatches per file write.
func measureDispatchesPerWrite(cfg ConfigName) (float64, error) {
	const writes = 40
	var perOp float64
	err := runInstance(fullProfile(coreConfig(cfg)), nil, func(s *unikernel.Sys, inst *unikernel.Instance) error {
		fd, err := s.Open("/d.dat", unikernel.OCreate|unikernel.OWronly)
		if err != nil {
			return err
		}
		before := inst.Runtime().SchedStats().Dispatches
		for i := 0; i < writes; i++ {
			if _, err := s.Write(fd, []byte("x")); err != nil {
				return err
			}
		}
		perOp = float64(inst.Runtime().SchedStats().Dispatches-before) / writes
		return nil
	})
	return perOp, err
}

// Render produces the ablation tables.
func (r *AblationResult) Render() string {
	t := &table{
		title:   "Ablation — what each VampOS mechanism buys",
		headers: []string{"mechanism", "with", "without", "effect"},
	}
	t.addRow("checkpoint-based init (§V-E, VFS reboot)",
		fmtDur(r.CheckpointReboot.Mean), fmtDur(r.ColdReboot.Mean),
		fmt.Sprintf("side-effect calls into live components: %d vs %d",
			r.CheckpointSideEffectCalls, r.ColdSideEffectCalls))
	t.addRow("dependency-aware sched (§V-C, dispatches/write)",
		fmt.Sprintf("%.1f", r.DispatchesDaS), fmt.Sprintf("%.1f", r.DispatchesRR),
		fmt.Sprintf("%.2fx", r.DispatchesRR/maxf(r.DispatchesDaS, 1)))
	out := t.String() + "\n"
	t2 := &table{
		title:   "Ablation — session-aware log shrinking (§V-F): reboot cost vs history",
		headers: []string{"ops", "log (shrink on)", "reboot (on)", "log (shrink off)", "reboot (off)"},
	}
	for i, ops := range r.ShrinkOps {
		t2.addRow(
			fmt.Sprintf("%d", ops),
			fmt.Sprintf("%d", r.LogLenShrinkOn[i]),
			fmtDur(r.RebootShrinkOn[i]),
			fmt.Sprintf("%d", r.LogLenShrinkOff[i]),
			fmtDur(r.RebootShrinkOff[i]),
		)
	}
	t2.addNote("with shrinking the retained log — and hence replay time — stays flat as history grows")
	return out + t2.String()
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
