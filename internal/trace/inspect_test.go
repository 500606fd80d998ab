package trace

// Enabled reports whether the recorder records anything.
func (r *Recorder) Enabled() bool { return r != nil }
