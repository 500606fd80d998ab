package ckpt

// Inspection helpers only the tests read.

// Len returns the number of retained images.
func (h *History[T]) Len() int { return len(h.entries) }
