package ckpt

// Inspection helpers only the tests read.

// Len returns the number of retained images.
func (h *History) Len() int { return len(h.entries) }

// Latest returns the most recently added entry, quarantined or not.
func (h *History) Latest() (HistoryEntry, bool) {
	if len(h.entries) == 0 {
		return HistoryEntry{}, false
	}
	return h.entries[len(h.entries)-1], true
}
