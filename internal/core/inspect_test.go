package core

// Inspection helpers only the tests read.

// Targets returns the monitored components in rejuvenation order.
func (d *AgingDriver) Targets() []string { return d.engine.Components() }

// Targets returns the rejuvenation schedule.
func (r *Rejuvenator) Targets() []string {
	out := make([]string, len(r.targets))
	copy(out, r.targets)
	return out
}
