package mem

import (
	"bytes"
	"testing"
)

// fillPage writes a full page of the given byte at page pg of base.
func fillPage(t *testing.T, m *Memory, base Addr, pg int, b byte) {
	t.Helper()
	buf := bytes.Repeat([]byte{b}, PageSize)
	if err := m.HostWrite(base+Addr(pg*PageSize), buf); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotDeltaCapturesOnlyDirtyPages: pages untouched since the
// previous snapshot are carried through; only written pages count as
// dirty, which is what the checkpoint cost model charges for.
func TestSnapshotDeltaCapturesOnlyDirtyPages(t *testing.T) {
	m := New(64 * PageSize)
	base, err := m.AllocPages(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for pg := 0; pg < 4; pg++ {
		fillPage(t, m, base, pg, byte(pg+1))
	}
	snap, err := m.Snapshot(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Resident != 4 {
		t.Fatalf("Resident = %d, want 4", snap.Resident)
	}

	// No writes since the snapshot: the delta is empty.
	clean, dirty, err := m.SnapshotDelta(snap)
	if err != nil {
		t.Fatal(err)
	}
	if dirty != 0 {
		t.Fatalf("clean delta reports %d dirty pages, want 0", dirty)
	}
	if clean.Resident != 4 {
		t.Fatalf("clean delta Resident = %d, want 4", clean.Resident)
	}

	// Dirty exactly one page: the delta charges one page and merges the
	// rest from the previous image.
	fillPage(t, m, base, 2, 0xAA)
	delta, dirty, err := m.SnapshotDelta(snap)
	if err != nil {
		t.Fatal(err)
	}
	if dirty != 1 {
		t.Fatalf("delta reports %d dirty pages, want 1", dirty)
	}
	want := bytes.Repeat([]byte{0xAA}, PageSize)
	if !bytes.Equal(delta.pages[2], want) {
		t.Fatal("delta did not capture the dirtied page's new content")
	}
	if !bytes.Equal(delta.pages[0], bytes.Repeat([]byte{1}, PageSize)) {
		t.Fatal("delta did not carry the clean page's image through")
	}
}

// TestSnapshotDeltaIsSelfContained: restoring from a delta alone must
// reproduce the full region — deltas merge, they do not chain.
func TestSnapshotDeltaIsSelfContained(t *testing.T) {
	m := New(64 * PageSize)
	base, err := m.AllocPages(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for pg := 0; pg < 3; pg++ {
		fillPage(t, m, base, pg, byte(0x10+pg))
	}
	snap, err := m.Snapshot(base, 3)
	if err != nil {
		t.Fatal(err)
	}
	fillPage(t, m, base, 1, 0xBB)
	delta, _, err := m.SnapshotDelta(snap)
	if err != nil {
		t.Fatal(err)
	}

	// Scribble everywhere, then restore only from the delta.
	for pg := 0; pg < 3; pg++ {
		fillPage(t, m, base, pg, 0xFF)
	}
	if err := m.Restore(delta); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	for pg, want := range []byte{0x10, 0xBB, 0x12} {
		if err := m.HostRead(base+Addr(pg*PageSize), got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{want}, PageSize)) {
			t.Fatalf("page %d after delta restore = %#x..., want %#x", pg, got[0], want)
		}
	}
}

// TestRestoreResetsVersionStamps: after restoring a snapshot the memory
// must report clean against that snapshot — otherwise the first
// checkpoint after every reboot would recopy the whole arena.
func TestRestoreResetsVersionStamps(t *testing.T) {
	m := New(64 * PageSize)
	base, err := m.AllocPages(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	fillPage(t, m, base, 0, 0x11)
	snap, err := m.Snapshot(base, 2)
	if err != nil {
		t.Fatal(err)
	}
	fillPage(t, m, base, 0, 0x22)
	fillPage(t, m, base, 1, 0x33)
	if _, dirty, _ := m.SnapshotDelta(snap); dirty != 2 {
		t.Fatalf("pre-restore dirty = %d, want 2", dirty)
	}
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if _, dirty, _ := m.SnapshotDelta(snap); dirty != 0 {
		t.Fatalf("post-restore dirty = %d, want 0", dirty)
	}
}

// TestFreedPagesAreDirtyAndAbsent: freeing a resident page dirties it
// (the region changed) and the next delta records it absent, so restore
// cost tracks residency, not the arena span.
func TestFreedPagesAreDirtyAndAbsent(t *testing.T) {
	m := New(64 * PageSize)
	base, err := m.AllocPages(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	fillPage(t, m, base, 0, 0x44)
	fillPage(t, m, base, 1, 0x55)
	snap, err := m.Snapshot(base, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.FreePages(base+Addr(PageSize), 1); err != nil {
		t.Fatal(err)
	}
	delta, dirty, err := m.SnapshotDelta(snap)
	if err != nil {
		t.Fatal(err)
	}
	if dirty != 1 {
		t.Fatalf("free dirtied %d pages, want 1", dirty)
	}
	if delta.Resident != 1 {
		t.Fatalf("delta Resident = %d, want 1 (freed page is absent)", delta.Resident)
	}
	if delta.pages[1] != nil {
		t.Fatal("freed page still marked present in the delta")
	}
}

// TestSnapshotDeltaRequiresStamps: a snapshot without version stamps
// (malformed) is rejected rather than silently treated as all-clean.
func TestSnapshotDeltaRequiresStamps(t *testing.T) {
	m := New(64 * PageSize)
	if _, _, err := m.SnapshotDelta(nil); err == nil {
		t.Fatal("SnapshotDelta(nil) succeeded")
	}
	if _, _, err := m.SnapshotDelta(&Snapshot{Base: 0, Pages: 2}); err == nil {
		t.Fatal("SnapshotDelta without stamps succeeded")
	}
}
