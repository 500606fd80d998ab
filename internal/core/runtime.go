package core

import (
	"fmt"
	//vampos:allow schedonly -- recMu guards reboot/microreboot records snapshotted by campaign worker goroutines while simulated threads append
	"sync"
	"time"

	"vampos/internal/ckpt"
	"vampos/internal/clock"
	"vampos/internal/mem"
	"vampos/internal/msg"
	"vampos/internal/sched"
	"vampos/internal/trace"
)

// Protection-key layout. The paper's tag budget per application (e.g.
// "app + nine components + message domain + thread scheduler = 12 tags"
// for Redis/Nginx) maps directly onto this assignment; key 0 stays on
// boot pages.
const (
	keyScheduler mem.Key = 1 // scheduler metadata
	keyDomains   mem.Key = 2 // all message domains share one tag
	keyApp       mem.Key = 3 // application heap
	keyFirstComp mem.Key = 4 // first component group key
)

// Virtual-time charges for runtime mechanisms, so that experiment
// timelines measured on the virtual clock reflect the paper's cost
// structure (message hops, log writes, snapshot loads). The values are
// calibrated against the paper's Unikraft/Xeon measurements; wall-clock
// benchmarks are reported separately by the bench harness.
const (
	costDispatch        = 200 * time.Nanosecond // one context switch
	costMessagePush     = 120 * time.Nanosecond // argument copy into a message domain
	costMessagePull     = 80 * time.Nanosecond  // message removal by the receiver
	costDirectCall      = 60 * time.Nanosecond  // vanilla / intra-merge function call
	costLogAppend       = 80 * time.Nanosecond  // one log record write
	costSnapshotPerPage = 10 * time.Microsecond // checkpoint restore, per page
	costReplayPerEntry  = 2 * time.Microsecond  // one replayed log record
	costColdInit        = 5 * time.Microsecond  // stateless re-initialisation
)

// Runtime is one booted VampOS unikernel: its address space, scheduler,
// components, message thread and reboot manager.
type Runtime struct {
	cfg   Config
	clk   *clock.Virtual
	sch   *sched.Scheduler
	memry *mem.Memory

	comps   map[string]*component
	order   []*component // registration order = boot order
	groups  []*group
	nextKey mem.Key

	appHeapBase  mem.Addr
	appHeapPages int
	appHeap      *mem.Buddy

	msgThread  *sched.Thread
	bootThread *sched.Thread
	// mq[mqHead:] is the message thread's work queue. Nothing else runs
	// while the message thread drains it, so it empties before every idle
	// block and msgLoop rewinds both there.
	mq      []mqItem
	mqHead  int
	pending pendingTable
	nextSeq uint64

	booted  bool
	stopped bool

	stats runtimeCounters
	// recMu guards reboots and microreboots: appended to by simulated
	// threads, snapshotted by Reboots()/Microreboots() from any goroutine.
	recMu        sync.Mutex
	reboots      []RebootRecord
	microreboots []MicrorebootRecord
	// armedMu guards armed: checkFault runs inside handler slices, which
	// under the sharded-baton engine execute concurrently across shards,
	// while campaigns arm and inspect from outside the scheduler.
	armedMu sync.Mutex
	armed   map[faultSite]*armedFault

	// agingTargets are the components the adaptive-rejuvenation
	// controller watches, in the order it rejuvenates them; nil unless
	// Boot started the controller for cfg.Aging.
	agingTargets []*component

	// tracer is the optional flight recorder. It lives in host memory,
	// outside every component domain, so reboots cannot destroy it. A
	// nil tracer is the common case and must stay free: every hook is a
	// nil check away from doing nothing.
	tracer *trace.Recorder

	// onFailStop, if set, runs the graceful-termination handler when a
	// group fail-stops permanently (§VIII).
	onFailStop func(ctx *Ctx, component string)
}

// NewRuntime creates an unbooted runtime with the given configuration.
func NewRuntime(cfg Config) *Runtime {
	cfg = cfg.fill()
	clk := clock.NewVirtual()
	var policy sched.Policy
	if cfg.MessagePassing && cfg.Policy == PolicyDependencyAware {
		policy = sched.NewDependencyAware()
	} else {
		policy = sched.NewRoundRobin()
	}
	s := sched.New(clk, policy)
	m := mem.New(DefaultMemorySize)
	if err := s.SetMemory(m); err != nil {
		panic(err) // fresh scheduler; cannot already have memory
	}
	s.SetDispatchCost(costDispatch)
	if cfg.MessagePassing && cfg.Shards > 0 {
		s.SetShards(cfg.Shards)
	}
	rt := &Runtime{
		cfg:     cfg,
		clk:     clk,
		sch:     s,
		memry:   m,
		comps:   make(map[string]*component),
		nextKey: keyFirstComp,
	}
	return rt
}

// Clock returns the runtime's virtual clock.
func (rt *Runtime) Clock() *clock.Virtual { return rt.clk }

// SetTracer attaches a flight recorder. Call it before Boot so the
// restoration-log observers are installed; a nil recorder detaches
// tracing (the hooks then cost one predicted branch each).
func (rt *Runtime) SetTracer(r *trace.Recorder) {
	rt.tracer = r
	if r.CapturesDispatches() {
		rt.sch.SetDispatchObserver(func(t *sched.Thread) {
			r.Instant(0, trace.KindDispatch, t.Name(), "dispatch", "")
		})
	} else {
		rt.sch.SetDispatchObserver(nil)
	}
}

// Tracer returns the attached flight recorder (nil when tracing is off).
func (rt *Runtime) Tracer() *trace.Recorder { return rt.tracer }

// Scheduler exposes the cooperative scheduler so that host-side threads
// (hypervisor services, workload clients) join the same simulation.
func (rt *Runtime) Scheduler() *sched.Scheduler { return rt.sch }

// Memory returns the guest address space.
func (rt *Runtime) Memory() *mem.Memory { return rt.memry }

// charge advances virtual time by the given mechanism cost. It may only
// be called from conductor-dispatched (live) contexts — the message
// thread, watchdog, and other system threads; code that can run inside a
// buffered round slice must use chargeOn with its thread.
func (rt *Runtime) charge(d time.Duration) {
	if d > 0 {
		rt.clk.Advance(d)
	}
}

// chargeOn advances virtual time on behalf of th: live when th holds the
// real baton, journaled into th's slice during a parallel round.
func (rt *Runtime) chargeOn(th *sched.Thread, d time.Duration) {
	if d <= 0 {
		return
	}
	if th != nil {
		th.Charge(d)
		return
	}
	rt.clk.Advance(d)
}

// Register adds a component. All registrations must happen before Boot;
// boot order follows registration order, so substrates register first.
func (rt *Runtime) Register(c Component) error {
	if rt.booted {
		return fmt.Errorf("core: Register after Boot")
	}
	d := c.Describe()
	if d.Name == "" {
		return fmt.Errorf("core: component with empty name")
	}
	if _, dup := rt.comps[d.Name]; dup {
		return fmt.Errorf("core: duplicate component %q", d.Name)
	}
	if d.HeapPages == 0 {
		d.HeapPages = DefaultHeapPages
	}
	if d.DomainPages == 0 {
		d.DomainPages = DefaultDomainPages
	}
	rec := &component{comp: c, desc: d, exports: c.Exports()}
	var err error
	if rec.sessions, rec.policies, err = sessionTable(c); err != nil {
		return err
	}
	rt.comps[d.Name] = rec
	rt.order = append(rt.order, rec)
	return nil
}

// Component returns the registered component implementation by name, for
// tests and experiments that reach into substrate state.
func (rt *Runtime) Component(name string) (Component, bool) {
	c, ok := rt.comps[name]
	if !ok {
		return nil, false
	}
	return c.comp, true
}

// Components returns the registered component names in boot order.
func (rt *Runtime) Components() []string {
	out := make([]string, len(rt.order))
	for i, c := range rt.order {
		out[i] = c.desc.Name
	}
	return out
}

// KeysInUse returns how many MPK tags the configuration consumes:
// app + one per group + message domain + scheduler (paper §VI).
func (rt *Runtime) KeysInUse() int {
	return 3 + len(rt.groups) // scheduler, domains, app, groups
}

// buildGroups partitions components into merge groups and assigns keys.
func (rt *Runtime) buildGroups() error {
	merged := make(map[string]*group)
	for _, names := range rt.cfg.Merges {
		if len(names) < 2 {
			return fmt.Errorf("core: merge group %v needs at least two members", names)
		}
		g := &group{name: names[0]}
		for _, n := range names {
			c, ok := rt.comps[n]
			if !ok {
				return fmt.Errorf("core: merge of unknown component %q", n)
			}
			if c.group != nil {
				return fmt.Errorf("core: component %q in two merge groups", n)
			}
			if merged[n] != nil {
				return fmt.Errorf("core: component %q merged twice", n)
			}
			merged[n] = g
		}
		g.name = fmt.Sprintf("%s+", names[0])
	}
	// Build groups in registration order so key assignment is stable.
	seen := make(map[*group]bool)
	for _, c := range rt.order {
		g := merged[c.desc.Name]
		if g == nil {
			g = &group{name: c.desc.Name}
		}
		c.group = g
		g.members = append(g.members, c)
		if !seen[g] {
			seen[g] = true
			rt.groups = append(rt.groups, g)
		}
	}
	for _, g := range rt.groups {
		if len(g.members) > 1 {
			names := ""
			for i, m := range g.members {
				if i > 0 {
					names += "+"
				}
				names += m.desc.Name
			}
			g.name = names
		}
		if rt.nextKey >= mem.NumKeys {
			return fmt.Errorf("core: out of protection keys (%d groups; 16 keys)", len(rt.groups))
		}
		g.key = rt.nextKey
		rt.nextKey++
	}
	// Shard ordinals: one per group by registration order (ordinal 0 is
	// the application-thread shard). Ordinals are assigned even when
	// Shards is off so the assignment itself never depends on the shard
	// count.
	for i, g := range rt.groups {
		g.shard = i + 1
	}
	return nil
}

// allocateRegions maps every component's heap and message domain.
func (rt *Runtime) allocateRegions() error {
	for _, g := range rt.groups {
		for _, c := range g.members {
			base, err := rt.memry.AllocPages(c.desc.HeapPages, g.key)
			if err != nil {
				return fmt.Errorf("core: heap for %q: %w", c.desc.Name, err)
			}
			heap, err := mem.NewBuddy(base, int64(c.desc.HeapPages)*mem.PageSize)
			if err != nil {
				return err
			}
			c.heapBase, c.heapPages, c.heap = base, c.desc.HeapPages, heap
			d, err := msg.NewDomain(c.desc.Name, rt.memry, keyDomains, c.desc.DomainPages)
			if err != nil {
				return err
			}
			d.Log().ShrinkEnabled = rt.cfg.LogShrinkEnabled
			if tr := rt.tracer; tr != nil {
				name := c.desc.Name
				d.Log().Observer = func(op, fn string, n int) {
					tr.Instant(0, trace.KindLogOp, name, op+" "+fn, fmt.Sprintf("n=%d", n))
				}
			}
			c.domain = d
		}
		// The group mailbox is the first member's domain.
		g.mailbox = g.members[0].domain
	}
	return nil
}

// Boot builds groups, maps memory, starts the message thread and the
// watchdog, and initialises every component in registration order —
// taking post-init checkpoints of the components that request them. It
// must run on a simulated thread; use Run for the common case.
func (rt *Runtime) Boot(boot *sched.Thread) error {
	if rt.booted {
		return fmt.Errorf("core: double Boot")
	}
	if err := rt.buildGroups(); err != nil {
		return err
	}
	if err := rt.allocateRegions(); err != nil {
		return err
	}
	for _, c := range rt.order {
		if c.images = rt.newImageStore(c); c.images != nil {
			// A disabled policy still gets a tracker: manual Ctx.Checkpoint
			// calls are accounted through it.
			c.tracker = ckpt.NewTracker(rt.cfg.Ckpt)
		}
	}
	rt.booted = true
	if rt.cfg.MessagePassing {
		rt.msgThread = rt.sch.Spawn("vampos/msg", mem.Allow(keyDomains), rt.msgLoop)
		rt.sch.Spawn("vampos/watchdog", mem.Allow(keyScheduler), rt.watchdogLoop)
		// Vanilla mode has no component reboots to schedule, hence the
		// message-passing gate.
		if rt.cfg.Aging.Enabled() {
			if err := rt.startAging(); err != nil {
				return err
			}
		}
	}
	return rt.initAll(boot, "init")
}

// initAll initialises every component in registration order on th —
// Boot, and again after FullRestart scrubbed the image — taking the
// post-init checkpoints of the components that request them.
func (rt *Runtime) initAll(th *sched.Thread, what string) error {
	rt.bootThread = th
	if !rt.cfg.MessagePassing {
		for _, c := range rt.order {
			if err := c.comp.Init(&Ctx{rt: rt, comp: c, th: th}); err != nil {
				return fmt.Errorf("core: %s %q: %w", what, c.desc.Name, err)
			}
		}
		return nil
	}
	// Spawn workers first so components can call each other during
	// later components' Init.
	for _, g := range rt.groups {
		rt.spawnWorker(g, false)
	}
	for _, g := range rt.groups {
		for _, c := range g.members {
			if err := rt.initComponentMP(th, g, c); err != nil {
				return fmt.Errorf("core: %s %q: %w", what, c.desc.Name, err)
			}
		}
	}
	return nil
}

// initComponentMP asks a group's worker to initialise one member, waits
// for completion, and seeds its image store, if it has one, with the
// post-init image.
func (rt *Runtime) initComponentMP(boot *sched.Thread, g *group, c *component) error {
	w := g.worker
	w.initQueue = append(w.initQueue, c)
	w.t.Wake()
	rt.sch.Hint(w.t)
	for !w.initDone[c] {
		boot.Block("await init " + c.desc.Name)
	}
	if err := w.initErr[c]; err != nil {
		return err
	}
	if c.images == nil {
		return nil
	}
	// The post-init image (§V-E) covers no completed call: under defense
	// it is the rollback target of last resort.
	cp, _, err := rt.captureImage(c, nil)
	if err != nil {
		return fmt.Errorf("core: checkpoint %q: %w", c.desc.Name, err)
	}
	lg := c.domain.Log()
	c.images.hist.Add(ckpt.ImageMeta{Epoch: lg.Epoch(), EpochSeq: lg.MaxCompletedSeq()}, cp)
	return nil
}

// Run boots the runtime and executes main as the first application
// thread, then drives the simulation until main returns and every other
// thread finishes (or Stop is called). It returns the boot or scheduling
// error, if any.
func (rt *Runtime) Run(main func(*Ctx)) error {
	var bootErr error
	boot := rt.sch.Spawn("boot", mem.AllowAll, func(t *sched.Thread) {
		// Stop unconditionally — a panicking main must still end the
		// simulation rather than leave polling threads spinning.
		defer rt.sch.Stop()
		if bootErr = rt.Boot(t); bootErr != nil {
			return
		}
		if main != nil {
			main(rt.appCtx(t))
		}
	})
	if err := rt.sch.Run(); err != nil {
		return err
	}
	if bootErr != nil {
		return bootErr
	}
	if pv := boot.PanicValue(); pv != nil {
		return fmt.Errorf("core: application thread panicked: %v", pv)
	}
	return nil
}

// IRQContext builds a context for host-side code (device backends) that
// needs to inject virtual interrupts; the injection borrows whatever
// simulated thread is current when the IRQ fires.
func (rt *Runtime) IRQContext(name string) *Ctx {
	return &Ctx{rt: rt, appName: name}
}

// appCtx builds an application-thread context.
func (rt *Runtime) appCtx(t *sched.Thread) *Ctx {
	if rt.cfg.MessagePassing {
		t.SetPKRU(mem.Allow(keyApp))
	} else {
		t.SetPKRU(mem.AllowAll)
	}
	return &Ctx{rt: rt, th: t, appName: "app"}
}

// Stop halts the simulation.
func (rt *Runtime) Stop() {
	rt.stopped = true
	rt.sch.Stop()
}

// Close releases the simulated threads a finished runtime still holds
// parked (sched.Scheduler.Close). Call it after Run has returned and the
// results have been read: application threads unwind through their
// deferred calls, which may still tick counters such as Stats().Calls.
// The flight recorder is detached first, so a trace the caller keeps
// gains nothing from the unwinding.
func (rt *Runtime) Close() {
	rt.SetTracer(nil)
	rt.sch.Close()
}

// EnsureAppHeap lazily maps an application arena of npages (power of
// two) tagged with the application key, for applications that keep bulk
// data in guest memory.
func (rt *Runtime) EnsureAppHeap(npages int) (*mem.Buddy, error) {
	if rt.appHeap != nil {
		return rt.appHeap, nil
	}
	base, err := rt.memry.AllocPages(npages, keyApp)
	if err != nil {
		return nil, err
	}
	h, err := mem.NewBuddy(base, int64(npages)*mem.PageSize)
	if err != nil {
		return nil, err
	}
	rt.appHeapBase, rt.appHeapPages, rt.appHeap = base, npages, h
	return h, nil
}
