package aging

// Inspection helpers only the tests read.

// Score returns the most recent window score.
func (m *Monitor) Score() Score { return m.score }
