package ckpt

import "testing"

func TestPolicyEnabled(t *testing.T) {
	cases := []struct {
		p    Policy
		want bool
	}{
		{Policy{}, false},
		{Policy{EveryCalls: 8}, true},
	}
	for _, c := range cases {
		if got := c.p.Enabled(); got != c.want {
			t.Errorf("Enabled(%+v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// TestTrackerCallCadence: the call-count trigger fires after EveryCalls
// completed calls and re-arms when the checkpoint is noted.
func TestTrackerCallCadence(t *testing.T) {
	tr := NewTracker(Policy{EveryCalls: 3})
	for i := 0; i < 2; i++ {
		tr.NoteCall()
		if tr.Due() {
			t.Fatalf("due after %d calls, cadence 3", i+1)
		}
	}
	tr.NoteCall()
	if !tr.Due() {
		t.Fatal("not due after 3 calls")
	}
	tr.NoteCheckpoint(5, 2, 1)
	if tr.Due() {
		t.Fatal("still due right after a checkpoint")
	}
	if got := tr.Stats().CallsSinceCheckpoint; got != 0 {
		t.Fatalf("CallsSinceCheckpoint = %d after checkpoint, want 0", got)
	}
}

// TestTrackerDisabledStillAccounts: a zero policy never triggers but the
// statistics still accumulate, so manual Ctx.Checkpoint calls show up.
func TestTrackerDisabledStillAccounts(t *testing.T) {
	tr := NewTracker(Policy{})
	for i := 0; i < 1000; i++ {
		tr.NoteCall()
	}
	if tr.Due() {
		t.Fatal("disabled policy reported due")
	}
	tr.NoteCheckpoint(7, 3, 2)
	st := tr.Stats()
	if st.CheckpointCount != 1 || st.DirtyPages != 7 || st.LastDirtyPages != 7 ||
		st.TruncatedEntries != 3 || st.FoldedEntries != 2 {
		t.Fatalf("stats after manual checkpoint = %+v", st)
	}
}

// TestTrackerStatsAccumulate: counters are lifetime totals across
// checkpoints; LastDirtyPages tracks only the most recent.
func TestTrackerStatsAccumulate(t *testing.T) {
	tr := NewTracker(Policy{EveryCalls: 1})
	tr.NoteCheckpoint(10, 4, 1)
	tr.NoteCheckpoint(2, 6, 0)
	st := tr.Stats()
	if st.CheckpointCount != 2 {
		t.Fatalf("CheckpointCount = %d, want 2", st.CheckpointCount)
	}
	if st.DirtyPages != 12 || st.LastDirtyPages != 2 {
		t.Fatalf("DirtyPages = %d / last %d, want 12 / 2", st.DirtyPages, st.LastDirtyPages)
	}
	if st.TruncatedEntries != 10 || st.FoldedEntries != 1 {
		t.Fatalf("Truncated/Folded = %d/%d, want 10/1", st.TruncatedEntries, st.FoldedEntries)
	}
}
