// Package ckpt decides when a stateful component should be
// re-checkpointed and accounts for what each checkpoint cost.
//
// The paper checkpoints a component exactly once, right after
// initialization (§V-E), so recovery replays every call the component
// ever completed — reboot latency grows linearly with time-since-boot.
// This package bounds the replay tail: a Policy names a cadence (every N
// completed inbound calls), and a Tracker carries one component's
// position against that cadence plus its lifetime checkpoint
// statistics. The mechanism — dirty-page snapshot deltas and log-epoch
// truncation — lives in internal/mem and internal/msg; the scheduling
// hook that invokes it at quiescent points lives in internal/core. This package is pure policy
// and bookkeeping so it can be configured from every CLI and inspected
// through Stats without importing the runtime.
package ckpt

// Policy names an incremental-checkpoint cadence for one component (or
// as a config-wide default). The zero Policy disables periodic
// checkpointing, which is the paper's behaviour: one post-init
// checkpoint, full-log replay forever after.
type Policy struct {
	// EveryCalls re-checkpoints after this many completed inbound calls
	// since the last checkpoint. Zero disables the call-count trigger.
	EveryCalls int
}

// Enabled reports whether the policy triggers checkpoints at all.
func (p Policy) Enabled() bool { return p.EveryCalls > 0 }

// Stats is one component's lifetime checkpoint accounting, exported
// through core.ComponentStats and the bench/campaign JSON.
type Stats struct {
	// CheckpointCount is the number of incremental checkpoints taken
	// (the post-init checkpoint is not counted — it always exists).
	CheckpointCount uint64
	// DirtyPages is the cumulative number of pages re-copied across all
	// incremental checkpoints; LastDirtyPages is the most recent one's.
	DirtyPages     uint64
	LastDirtyPages int
	// TruncatedEntries counts non-durable log records dropped by epoch
	// truncation; FoldedEntries counts durable records folded into
	// checkpoint images.
	TruncatedEntries uint64
	FoldedEntries    uint64
	// CallsSinceCheckpoint counts completed inbound calls since the last
	// checkpoint (or since boot) — the replay-tail length a crash right
	// now would incur, before session-aware shrinking.
	CallsSinceCheckpoint int
}

// Tracker carries one component's cadence position. It is owned by the
// component's worker group and only touched under the cooperative
// scheduler baton, so it needs no locking.
type Tracker struct {
	policy Policy
	stats  Stats
}

// NewTracker returns a tracker for the given policy. A disabled policy
// still tracks statistics, so manual Ctx.Checkpoint calls are accounted.
func NewTracker(p Policy) *Tracker {
	return &Tracker{policy: p}
}

// Stats returns a copy of the accumulated statistics.
func (t *Tracker) Stats() Stats { return t.stats }

// NoteCall records one completed inbound call.
func (t *Tracker) NoteCall() { t.stats.CallsSinceCheckpoint++ }

// Due reports whether the policy asks for a checkpoint now. Call it only
// at a quiescent point; the answer is meaningless mid-call.
func (t *Tracker) Due() bool {
	return t.policy.EveryCalls > 0 && t.stats.CallsSinceCheckpoint >= t.policy.EveryCalls
}

// NoteCheckpoint records a completed checkpoint: how many dirty pages it
// copied and how many log entries its truncation dropped or folded. It
// resets the call-count cadence.
func (t *Tracker) NoteCheckpoint(dirtyPages, truncated, folded int) {
	t.stats.CheckpointCount++
	t.stats.DirtyPages += uint64(dirtyPages)
	t.stats.LastDirtyPages = dirtyPages
	t.stats.TruncatedEntries += uint64(truncated)
	t.stats.FoldedEntries += uint64(folded)
	t.stats.CallsSinceCheckpoint = 0
}
