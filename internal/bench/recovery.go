package bench

import (
	"fmt"
	"time"

	"vampos/internal/ckpt"
	"vampos/internal/unikernel"
)

// RecoveryPoint is one measured cell of the checkpoint figure: recovery
// latency of VFS after Calls completed writes since boot.
type RecoveryPoint struct {
	Calls         int           // inbound VFS calls completed before the reboot
	Virtual       time.Duration // reboot virtual duration
	Replayed      int           // log entries replayed
	RestoredPages int           // snapshot pages restored
	LogLen        int           // retained log length just before the reboot
	Checkpoints   uint64        // incremental checkpoints taken before the reboot
	Truncated     uint64        // log entries dropped by checkpoint truncation
	DirtyPages    uint64        // dirty pages captured across all checkpoints
}

// RecoveryResult is the checkpoint figure: recovery latency vs
// calls-since-boot with incremental checkpointing off and on. Without
// checkpointing the retained log — and with it the replay phase — grows
// linearly with the call count; with periodic quiescent-point
// checkpoints the log is truncated at every checkpoint and recovery
// stays flat.
type RecoveryResult struct {
	CkptEvery int // checkpoint cadence of the "on" arm (completed calls)
	Off       []RecoveryPoint
	On        []RecoveryPoint
}

// RunRecovery measures VFS recovery latency as a function of
// calls-since-boot, with incremental checkpointing disabled and enabled.
// Each point boots a fresh DaS instance (file system linked, no
// network), creates one file, appends Calls small writes on the open fd
// — write is a transient-class logged call, so with the fd still open
// every entry is retained — then reboots VFS and reads the reboot
// record.
func RunRecovery(scale Scale) (*RecoveryResult, error) {
	res := &RecoveryResult{CkptEvery: scale.RecoveryCkptEvery}
	for _, calls := range scale.RecoveryCalls {
		off, err := runRecoveryPoint(calls, ckpt.Policy{})
		if err != nil {
			return nil, fmt.Errorf("recovery off/%d: %w", calls, err)
		}
		res.Off = append(res.Off, *off)
		on, err := runRecoveryPoint(calls, ckpt.Policy{EveryCalls: scale.RecoveryCkptEvery})
		if err != nil {
			return nil, fmt.Errorf("recovery on/%d: %w", calls, err)
		}
		res.On = append(res.On, *on)
	}
	return res, nil
}

func runRecoveryPoint(calls int, pol ckpt.Policy) (*RecoveryPoint, error) {
	cc := coreConfig(DaS)
	cc.Ckpt = pol
	// Park log compaction far out of reach: it is an orthogonal
	// bounded-replay mechanism (the Table IV sweep) and would flatten the
	// "off" arm, hiding exactly the linear growth this figure isolates.
	cc.LogShrinkThreshold = 1 << 30
	pt := &RecoveryPoint{Calls: calls}
	err := runInstance(unikernel.Config{Core: cc, FS: true}, nil, func(s *unikernel.Sys, inst *unikernel.Instance) error {
		fd, err := s.Create("/ckpt-figure.dat")
		if err != nil {
			return err
		}
		payload := []byte("01234567")
		for i := 0; i < calls; i++ {
			if _, err := s.Write(fd, payload); err != nil {
				return err
			}
		}
		cs, _ := inst.Runtime().ComponentStats("vfs")
		pt.LogLen = cs.LogLen
		pt.Checkpoints = cs.Ckpt.CheckpointCount
		pt.Truncated = cs.Ckpt.TruncatedEntries + cs.Ckpt.FoldedEntries
		pt.DirtyPages = cs.Ckpt.DirtyPages
		rec, err := rebootRecord(s, "vfs")
		if err != nil {
			return err
		}
		pt.Virtual = rec.VirtualDuration
		pt.Replayed = rec.ReplayedEntries
		pt.RestoredPages = rec.RestoredPages
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pt, nil
}

// Render produces the recovery-latency figure as a table.
func (r *RecoveryResult) Render() string {
	t := &table{
		title:   fmt.Sprintf("Checkpoint figure — VFS recovery latency vs calls-since-boot (ckpt every %d calls)", r.CkptEvery),
		headers: []string{"calls", "ckpt", "virtual", "replayed", "log len", "snap pages", "ckpts", "truncated", "dirty pages"},
	}
	row := func(pt RecoveryPoint, arm string) {
		t.addRow(
			fmt.Sprintf("%d", pt.Calls),
			arm,
			fmtDur(pt.Virtual),
			fmt.Sprintf("%d", pt.Replayed),
			fmt.Sprintf("%d", pt.LogLen),
			fmt.Sprintf("%d", pt.RestoredPages),
			fmt.Sprintf("%d", pt.Checkpoints),
			fmt.Sprintf("%d", pt.Truncated),
			fmt.Sprintf("%d", pt.DirtyPages),
		)
	}
	for i := range r.Off {
		row(r.Off[i], "off")
		if i < len(r.On) {
			row(r.On[i], "on")
		}
	}
	t.addNote("off: the retained log grows with every call and replay dominates recovery (linear in calls-since-boot)")
	t.addNote("on: quiescent-point checkpoints fold the log into the image and truncate it; replay is bounded by the cadence and recovery stays flat")
	t.addNote("the paper checkpoints only after initialization (§V-E); the incremental extension trades SnapshotPerPage × dirty pages per checkpoint for bounded replay")
	return t.String()
}
