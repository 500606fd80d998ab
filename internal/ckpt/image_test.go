package ckpt

import (
	"testing"
	"testing/quick"
)

func TestHistoryRingEviction(t *testing.T) {
	h := NewHistory[int](3)
	for i := 1; i <= 5; i++ {
		h.Add(ImageMeta{Epoch: uint64(i), EpochSeq: uint64(i * 10)}, i)
	}
	if h.Len() != 3 {
		t.Fatalf("Len = %d, want 3", h.Len())
	}
	metas := h.Metas()
	if metas[0].EpochSeq != 30 || metas[2].EpochSeq != 50 {
		t.Fatalf("ring holds %v, want epochs 30..50", metas)
	}
	cur, ok := h.Current()
	if !ok || cur.Meta.EpochSeq != 50 || cur.Image != 5 {
		t.Fatalf("Current = %+v, %v; want the latest image", cur, ok)
	}
}

func TestHistoryDepthClamped(t *testing.T) {
	h := NewHistory[int](0)
	if _, ok := h.Current(); ok {
		t.Fatal("an empty history has a current image")
	}
	h.Add(ImageMeta{EpochSeq: 1}, 1)
	h.Add(ImageMeta{EpochSeq: 2}, 2)
	if h.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (depth clamped to 1)", h.Len())
	}
}

// The core property from the issue: for any watermark position, the
// selected image's EpochSeq strictly predates the watermark, and it is
// the newest such non-quarantined image — the replayed tail is therefore
// exactly the un-tainted suffix (seqs in (EpochSeq, W)).
func TestHistorySelectBeforeProperty(t *testing.T) {
	prop := func(seqs []uint16, watermark uint16, quarantineMask uint8) bool {
		h := NewHistory[int](8)
		for i, s := range seqs {
			meta := ImageMeta{Epoch: uint64(i), EpochSeq: uint64(s)}
			if i < 8 && quarantineMask&(1<<uint(i)) != 0 {
				meta.Quarantined = true
			}
			h.Add(meta, i)
		}
		w := uint64(watermark)
		sel, ok := h.SelectBefore(w)
		// Independently compute the expected answer over the retained set.
		var want uint64
		wantOK := false
		for _, m := range h.Metas() {
			if m.Quarantined || m.EpochSeq >= w {
				continue
			}
			if !wantOK || m.EpochSeq > want {
				want, wantOK = m.EpochSeq, true
			}
		}
		if ok != wantOK {
			return false
		}
		if !ok {
			return true
		}
		// Strictly predates the watermark, never quarantined, newest, and
		// now the image a restore uses.
		cur, _ := h.Current()
		return sel.Meta.EpochSeq < w && !sel.Meta.Quarantined && sel.Meta.EpochSeq == want && cur == sel
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Regression: a quarantined image is never selected even when it is the
// only image below the watermark — selection falls back to an earlier
// image, or reports failure (full-replay / fail-stop path).
func TestHistoryQuarantinedNeverSelected(t *testing.T) {
	h := NewHistory[string](4)
	h.Add(ImageMeta{Epoch: 1, EpochSeq: 10}, "clean")
	h.Add(ImageMeta{Epoch: 2, EpochSeq: 40}, "tainted")
	if n := h.QuarantineFrom(35); n != 1 {
		t.Fatalf("QuarantineFrom(35) = %d, want 1", n)
	}
	sel, ok := h.SelectBefore(50)
	if !ok || sel.Image != "clean" {
		t.Fatalf("SelectBefore(50) = %+v, %v; want fallback to clean image", sel, ok)
	}

	// Only image is quarantined: selection must fail rather than restore it.
	h2 := NewHistory[string](4)
	h2.Add(ImageMeta{Epoch: 1, EpochSeq: 40}, "tainted")
	h2.QuarantineFrom(35)
	if _, ok := h2.SelectBefore(50); ok {
		t.Fatal("SelectBefore selected a quarantined image")
	}
	if cur, _ := h2.Current(); cur.Image != "tainted" {
		t.Fatalf("a failed SelectBefore moved the current image to %+v", cur)
	}
}

func TestHistoryQuarantinePermanentAndOldest(t *testing.T) {
	h := NewHistory[string](4)
	h.Add(ImageMeta{Epoch: 1, EpochSeq: 5}, "")
	h.Add(ImageMeta{Epoch: 2, EpochSeq: 20}, "")
	h.Add(ImageMeta{Epoch: 3, EpochSeq: 30}, "")
	h.QuarantineFrom(25)
	if got := h.QuarantinedCount(); got != 1 {
		t.Fatalf("QuarantinedCount = %d, want 1", got)
	}
	// Re-quarantining is idempotent.
	if n := h.QuarantineFrom(25); n != 0 {
		t.Fatalf("second QuarantineFrom = %d, want 0", n)
	}
	min, ok := h.OldestEpochSeq()
	if !ok || min != 5 {
		t.Fatalf("OldestEpochSeq = %d, %v; want 5", min, ok)
	}
	// After rollback the next capture restarts below the quarantined seq;
	// the ring is unsorted and selection must still work.
	h.Add(ImageMeta{Epoch: 4, EpochSeq: 22}, "post-rollback")
	sel, ok := h.SelectBefore(25)
	if !ok || sel.Meta.EpochSeq != 22 {
		t.Fatalf("SelectBefore(25) = %+v, %v; want post-rollback image at 22", sel, ok)
	}
}
