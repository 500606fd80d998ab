package ckpt

// Image history with taint-aware selection and quarantine.
//
// Plain recovery restores the newest checkpoint image. Under attack that
// is exactly wrong: a checkpoint captured after the first tampered call
// has baked the corruption into the image, and restoring it replays the
// attack for free. The defense pipeline therefore retains a bounded ring
// of recent images per component and, when a taint watermark W (first
// suspect log seq) is known, restores the newest image whose epoch seq
// strictly predates W — quarantining every image captured at or after W
// so it can never be restored, this recovery or any later one.

// ImageMeta describes one retained checkpoint image. EpochSeq is the
// log-sequence high-water mark folded into the image: every inbound call
// with Seq <= EpochSeq is part of the image, every later call must be
// replayed on top of it.
type ImageMeta struct {
	// Epoch is the log epoch the capturing truncation advanced to.
	Epoch uint64
	// EpochSeq is the highest completed inbound seq folded into the image.
	EpochSeq uint64
	// Quarantined marks an image captured at or after a taint watermark;
	// a quarantined image is never selected for restore again.
	Quarantined bool
}

// HistoryEntry pairs an image's metadata with the image itself.
type HistoryEntry[T any] struct {
	Meta  ImageMeta
	Image T
}

// History is a bounded ring of checkpoint images for one component,
// newest last, with one entry marked current: the image the component
// restores from. Entries are appended in capture order, but after a
// taint-aware rollback the next capture's EpochSeq restarts below a
// quarantined entry's, so entries are NOT sorted by EpochSeq — selection
// scans the whole ring.
type History[T any] struct {
	depth   int
	entries []HistoryEntry[T]
	cur     int // index of the current entry; meaningless while empty
}

// NewHistory returns a history retaining at most depth images. Depth is
// clamped to at least 1 (the latest image must always be retainable).
func NewHistory[T any](depth int) *History[T] {
	if depth < 1 {
		depth = 1
	}
	return &History[T]{depth: depth}
}

// Add appends a freshly captured image and makes it current, evicting
// the oldest entry when the ring is full.
func (h *History[T]) Add(meta ImageMeta, image T) {
	h.entries = append(h.entries, HistoryEntry[T]{Meta: meta, Image: image})
	if len(h.entries) > h.depth {
		copy(h.entries, h.entries[1:])
		h.entries[len(h.entries)-1] = HistoryEntry[T]{}
		h.entries = h.entries[:len(h.entries)-1]
	}
	h.cur = len(h.entries) - 1
}

// Current returns the entry the component restores from: the latest
// added, or the one the last SelectBefore rolled back to. It reports
// false while the history is empty.
func (h *History[T]) Current() (HistoryEntry[T], bool) {
	if len(h.entries) == 0 {
		return HistoryEntry[T]{}, false
	}
	return h.entries[h.cur], true
}

// SelectBefore makes current, and returns, the retained non-quarantined
// image with the greatest EpochSeq strictly below the watermark. It
// scans every entry: after a rollback the ring is not EpochSeq-sorted,
// and quarantined entries must be skipped even when they are the only
// post-watermark images. When no image qualifies the current entry is
// left as it was.
func (h *History[T]) SelectBefore(watermark uint64) (HistoryEntry[T], bool) {
	best := -1
	for i, e := range h.entries {
		if e.Meta.Quarantined || e.Meta.EpochSeq >= watermark {
			continue
		}
		if best < 0 || e.Meta.EpochSeq > h.entries[best].Meta.EpochSeq {
			best = i
		}
	}
	if best < 0 {
		return HistoryEntry[T]{}, false
	}
	h.cur = best
	return h.entries[best], true
}

// QuarantineFrom marks every image whose EpochSeq is at or after the
// watermark as quarantined, returning how many entries it newly
// quarantined. Quarantine is permanent: such an image may have folded a
// tampered call and must never be restored.
func (h *History[T]) QuarantineFrom(watermark uint64) int {
	n := 0
	for i := range h.entries {
		e := &h.entries[i]
		if !e.Meta.Quarantined && e.Meta.EpochSeq >= watermark {
			e.Meta.Quarantined = true
			n++
		}
	}
	return n
}

// QuarantinedCount returns how many retained images are quarantined.
func (h *History[T]) QuarantinedCount() int {
	n := 0
	for _, e := range h.entries {
		if e.Meta.Quarantined {
			n++
		}
	}
	return n
}

// OldestEpochSeq returns the smallest EpochSeq among retained
// non-quarantined images — the earliest point taint-aware restore can
// land on, and therefore the trim bound for the archived-record tail.
func (h *History[T]) OldestEpochSeq() (uint64, bool) {
	found := false
	var min uint64
	for _, e := range h.entries {
		if e.Meta.Quarantined {
			continue
		}
		if !found || e.Meta.EpochSeq < min {
			min, found = e.Meta.EpochSeq, true
		}
	}
	return min, found
}

// Metas returns a copy of every retained entry's metadata, oldest first,
// for stats and oracles.
func (h *History[T]) Metas() []ImageMeta {
	out := make([]ImageMeta, len(h.entries))
	for i, e := range h.entries {
		out[i] = e.Meta
	}
	return out
}
