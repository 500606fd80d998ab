package ukcomp

// Inits reports how many times the component booted (reboot observation).
func (p *Process) Inits() int { return p.inits }
