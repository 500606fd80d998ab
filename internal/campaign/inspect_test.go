package campaign

// Fault slices only the tests select.

// DefenseFaults lists the attack-shaped fault kinds, which run with the
// defense pipeline armed (Config.Defense).
func DefenseFaults() []FaultName { return []FaultName{FaultTamper, FaultBadFrame, FaultXDomTouch} }
