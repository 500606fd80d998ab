// Package unikernel assembles a VampOS (or vanilla) unikernel instance:
// it selects components per application (paper Table I / §VI), wires the
// virtio devices to the host backends, exposes the POSIX-ish system-call
// surface the applications use, and drives the instance lifecycle —
// including the baseline full reboot the paper compares against.
package unikernel

import (
	"fmt"
	"time"

	"vampos/internal/core"
	"vampos/internal/host"
	"vampos/internal/lwip"
	"vampos/internal/netdev"
	"vampos/internal/ninep"
	"vampos/internal/sched"
	"vampos/internal/trace"
	"vampos/internal/ukcomp"
	"vampos/internal/vfs"
	"vampos/internal/virtio"
)

// Config selects what gets linked into the image and how it runs.
type Config struct {
	// Core is the runtime configuration (Vanilla / Noop / DaS / FSm /
	// NETm via the core constructors).
	Core core.Config
	// FS links the file-system components (9PFS). VFS is always linked.
	FS bool
	// Net links the network components (LWIP + NETDEV).
	Net bool
	// Sysinfo links the SYSINFO component.
	Sysinfo bool
	// VFSNoCheckpoint disables VFS's checkpoint-based initialization
	// (forcing cold re-init + replay): the §V-E ablation knob.
	VFSNoCheckpoint bool
}

// BootDelay models the out-of-simulation part of a full reboot (VM
// teardown, firmware, kernel boot) in virtual time.
const BootDelay = 300 * time.Millisecond

// appHeapPages sizes the application arena: 65536 pages = 256 MiB,
// enough for the Redis workload.
const appHeapPages = 65536

// Instance is one assembled unikernel plus its host-side world.
type Instance struct {
	cfg  Config
	rt   *core.Runtime
	host *host.Host

	virtioC *virtio.Comp
	netdevC *netdev.Comp
	ninePC  *ninep.Comp
	lwipC   *lwip.Comp
	vfsC    *vfs.Comp
	procC   *ukcomp.Process

	appThreads []*sched.Thread
	app        App
}

// App is an application linked against the unikernel: Main starts its
// server threads (via Sys.Go) and returns once the app is serving. After
// a full reboot the instance calls Main again — with all previous state
// gone, exactly like a restarted image.
type App interface {
	Name() string
	Main(sys *Sys) error
}

// New assembles an instance. Components register in bottom-up boot
// order; which ones exist follows the application profile flags.
func New(cfg Config) (*Instance, error) {
	// Component merges only make sense when both members are linked:
	// an application profile without the network keeps FSm semantics
	// but degenerates NETm to plain DaS, as the paper's per-app builds do.
	linked := map[string]bool{
		"process": true, "user": true, "timer": true, "virtio": true, "vfs": true,
		"sysinfo": cfg.Sysinfo, "netdev": cfg.Net, "lwip": cfg.Net, "9pfs": cfg.FS,
	}
	var merges [][]string
	for _, group := range cfg.Core.Merges {
		all := true
		for _, m := range group {
			if !linked[m] {
				all = false
				break
			}
		}
		if all {
			merges = append(merges, group)
		}
	}
	cfg.Core.Merges = merges
	rt := core.NewRuntime(cfg.Core)
	h := host.New(rt.Scheduler())
	inst := &Instance{cfg: cfg, rt: rt, host: h}

	inst.procC = ukcomp.NewProcess()
	reg := func(c core.Component) error { return rt.Register(c) }
	if err := reg(inst.procC); err != nil {
		return nil, err
	}
	if cfg.Sysinfo {
		if err := reg(ukcomp.NewSysinfo()); err != nil {
			return nil, err
		}
	}
	if err := reg(ukcomp.NewUser()); err != nil {
		return nil, err
	}
	if err := reg(ukcomp.NewTimer()); err != nil {
		return nil, err
	}
	inst.virtioC = virtio.New(h)
	if err := reg(inst.virtioC); err != nil {
		return nil, err
	}
	if cfg.Net {
		inst.netdevC = netdev.New()
		if err := reg(inst.netdevC); err != nil {
			return nil, err
		}
	}
	if cfg.FS {
		inst.ninePC = ninep.NewFS()
		if err := reg(inst.ninePC); err != nil {
			return nil, err
		}
	}
	if cfg.Net {
		inst.lwipC = lwip.New(host.GuestIP)
		if err := reg(inst.lwipC); err != nil {
			return nil, err
		}
		irqCtx := rt.IRQContext("irq/net")
		inst.virtioC.OnRxIRQ = func() {
			_ = rt.Inject(irqCtx, "lwip", "rx_pump")
		}
	}
	inst.vfsC = vfs.New()
	inst.vfsC.MountRoot = cfg.FS
	inst.vfsC.DisableCheckpoint = cfg.VFSNoCheckpoint
	if err := reg(inst.vfsC); err != nil {
		return nil, err
	}
	return inst, nil
}

// Runtime exposes the core runtime (stats, reboots, component access).
func (i *Instance) Runtime() *core.Runtime { return i.rt }

// SetTracer attaches a flight recorder to the runtime and the host
// services. Call it between New and Run so the restoration-log
// observers are installed at boot; a nil recorder detaches tracing.
func (i *Instance) SetTracer(r *trace.Recorder) {
	i.rt.SetTracer(r)
	i.host.SetTracer(r)
}

// NewTracer creates a flight recorder named name on the instance's
// virtual clock, attaches it, and returns it.
func (i *Instance) NewTracer(name string, opts ...trace.Option) *trace.Recorder {
	r := trace.New(name, i.rt.Clock().Elapsed, opts...)
	i.SetTracer(r)
	return r
}

// Host exposes the hypervisor-side world (export FS, peers).
func (i *Instance) Host() *host.Host { return i.host }

// Run boots the instance and executes control as the experiment
// controller thread. It returns when control returns (the simulation
// stops) or on a boot error.
func (i *Instance) Run(control func(*Sys)) error {
	i.host.Start()
	return i.rt.Run(func(ctx *core.Ctx) {
		if _, err := i.rt.EnsureAppHeap(appHeapPages); err != nil {
			panic(fmt.Sprintf("unikernel: app heap: %v", err))
		}
		control(&Sys{ctx: ctx, inst: i})
	})
}

// Close tears down an instance that will not run again, releasing every
// simulated thread Run left parked and the memory their stacks hold. Call
// it once the results have been read (see core.Runtime.Close).
func (i *Instance) Close() {
	i.host.SetTracer(nil)
	i.rt.Close()
}

// StartApp runs the application's Main on the controller thread; server
// threads it spawns are tracked for the full-reboot teardown.
func (s *Sys) StartApp(app App) error {
	s.inst.app = app
	return app.Main(s)
}

// FullReboot is the paper's baseline recovery: stop the whole image,
// lose every component's and the application's state, re-initialise
// everything (coordinated virtio reset included), charge the boot
// delay, and start the application again from scratch.
func (s *Sys) FullReboot() error {
	i := s.inst
	var sp trace.SpanID
	if tr := i.rt.Tracer(); tr != nil {
		sp = tr.Begin(0, trace.KindReboot, "image", "", "full reboot")
	}
	for _, t := range i.appThreads {
		if t.State() != sched.StateDone {
			t.Kill()
		}
	}
	i.appThreads = nil
	if err := i.rt.FullRestart(s.ctx); err != nil {
		i.rt.Tracer().EndErr(sp, "restart failed: "+err.Error())
		return err
	}
	s.ctx.Sleep(BootDelay)
	if i.app != nil {
		if err := i.app.Main(s); err != nil {
			i.rt.Tracer().EndErr(sp, "app restart failed: "+err.Error())
			return fmt.Errorf("unikernel: app restart after full reboot: %w", err)
		}
	}
	i.rt.Tracer().EndErr(sp, "ok")
	return nil
}

// Reboot performs a VampOS component-level reboot.
func (s *Sys) Reboot(component string) error { return s.ctx.Reboot(component) }

// MicrorebootSession performs a session-granular microreboot: evict one
// session's state from the named component and replay its surviving log
// slice in place, leaving every other session untouched (rung 1 of the
// recovery ladder).
func (s *Sys) MicrorebootSession(component, session string) error {
	return s.ctx.MicrorebootSession(component, session)
}

// Stop ends the simulation.
func (s *Sys) Stop() { s.inst.rt.Stop() }
