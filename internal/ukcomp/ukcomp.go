// Package ukcomp implements the small stateless components of Table I:
// PROCESS (getpid…), SYSINFO (uname…), USER (getuid…), and TIMER
// (time-related operations). They reboot by plain re-initialisation,
// with no logging or restoration — the paper's "stateless component"
// reboot path measured in Fig. 6.
package ukcomp

import (
	"vampos/internal/core"
	"vampos/internal/msg"
)

// Process implements process-related functions.
type Process struct {
	pid   int
	inits int
}

// NewProcess creates the PROCESS component.
func NewProcess() *Process { return &Process{pid: 1} }

// Describe implements core.Component.
func (p *Process) Describe() core.Descriptor {
	return core.Descriptor{Name: "process", HeapPages: 16, DomainPages: 16}
}

// Init implements core.Component.
func (p *Process) Init(*core.Ctx) error {
	p.inits++
	return nil
}

// Exports implements core.Component.
func (p *Process) Exports() map[string]core.Handler {
	return map[string]core.Handler{
		"getpid": func(ctx *core.Ctx, _ msg.Encoded) (msg.Encoded, error) {
			return ctx.Ret(p.pid)
		},
		"getppid": func(ctx *core.Ctx, _ msg.Encoded) (msg.Encoded, error) {
			return ctx.Ret(0)
		},
	}
}

// Sysinfo implements system information functions.
type Sysinfo struct{}

// NewSysinfo creates the SYSINFO component.
func NewSysinfo() *Sysinfo { return &Sysinfo{} }

// Describe implements core.Component.
func (s *Sysinfo) Describe() core.Descriptor {
	return core.Descriptor{Name: "sysinfo", HeapPages: 16, DomainPages: 16}
}

// Init implements core.Component.
func (s *Sysinfo) Init(*core.Ctx) error { return nil }

// Exports implements core.Component.
func (s *Sysinfo) Exports() map[string]core.Handler {
	return map[string]core.Handler{
		"uname": func(ctx *core.Ctx, _ msg.Encoded) (msg.Encoded, error) {
			return ctx.Ret("VampOS", "vampos-guest", "0.8.0-vamp", "x86_64")
		},
	}
}

// User implements user information functions.
type User struct{}

// NewUser creates the USER component.
func NewUser() *User { return &User{} }

// Describe implements core.Component.
func (u *User) Describe() core.Descriptor {
	return core.Descriptor{Name: "user", HeapPages: 16, DomainPages: 16}
}

// Init implements core.Component.
func (u *User) Init(*core.Ctx) error { return nil }

// Exports implements core.Component.
func (u *User) Exports() map[string]core.Handler {
	uid := func(ctx *core.Ctx, _ msg.Encoded) (msg.Encoded, error) {
		return ctx.Ret(0) // unikernels run as root
	}
	return map[string]core.Handler{
		"getuid":  uid,
		"geteuid": uid,
		"getgid":  uid,
	}
}

// Timer implements time-related operations over the virtual clock.
type Timer struct{}

// NewTimer creates the TIMER component.
func NewTimer() *Timer { return &Timer{} }

// Describe implements core.Component.
func (t *Timer) Describe() core.Descriptor {
	return core.Descriptor{Name: "timer", HeapPages: 16, DomainPages: 16}
}

// Init implements core.Component.
func (t *Timer) Init(*core.Ctx) error { return nil }

// Exports implements core.Component.
func (t *Timer) Exports() map[string]core.Handler {
	return map[string]core.Handler{
		"clock_gettime": func(ctx *core.Ctx, _ msg.Encoded) (msg.Encoded, error) {
			now := ctx.Now()
			return ctx.Ret(now.Unix(), int64(now.Nanosecond()))
		},
		"uptime_ns": func(ctx *core.Ctx, _ msg.Encoded) (msg.Encoded, error) {
			return ctx.Ret(int64(ctx.Elapsed()))
		},
	}
}
