package aging

// Inspection helpers only the tests read.

// Score returns the most recent window score.
func (m *Monitor) Score() Score { return m.score }

// AllStats returns every monitor's accounting keyed by component.
func (e *Engine) AllStats() map[string]Stats {
	out := make(map[string]Stats, len(e.mons))
	for name, m := range e.mons {
		out[name] = m.Stats()
	}
	return out
}
