package campaign

// Fault slices only the tests select.

// DefenseFaults lists the attack-shaped fault kinds, which run with the
// defense pipeline armed (Config.Defense).
func DefenseFaults() []FaultName { return []FaultName{FaultTamper, FaultBadFrame, FaultXDomTouch} }

// isClusterFault reports whether f is a fault kind of the cluster plane.
func isClusterFault(f FaultName) bool {
	r, err := lookup("fault", faultTable, f)
	return err == nil && r.plane == onCluster
}
