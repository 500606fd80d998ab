package core

import (
	"time"

	"vampos/internal/mem"
	"vampos/internal/msg"
	"vampos/internal/sched"
	"vampos/internal/trace"
)

// Ctx is the execution context handed to component handlers and
// application threads. It carries the identity of the executing component
// (nil for application code), the simulated thread, and — during
// encapsulated restoration — the replay state that feeds logged return
// values back instead of calling other components.
type Ctx struct {
	rt      *Runtime
	comp    *component
	th      *sched.Thread
	replay  *replayState
	appName string
	// span is the context's current trace span: calls issued through
	// this context become its children. Zero when tracing is off or the
	// context is outside any traced operation.
	span trace.SpanID
	// call is the slot every message call from this context reuses: its
	// thread blocks in BlockCall until a call resolves, so one is enough.
	call *pendingCall
	// args holds the encoding of the context's current call, for the same
	// reason reused by every call: the slot's arguments while a message
	// call is in flight, the handler's on a direct call.
	args msg.Encoded
	// rets is where Ret encodes results: on a worker, its reply buffer's
	// free tail. scratch is what Bytes copies into.
	rets    msg.Encoded
	scratch []byte
}

// replayState drives one record's replay during encapsulated restoration.
type replayState struct {
	grp *group
	rec *msg.RecordView
	idx int
	// diverged records a log mismatch even if the component swallows the
	// error: the restore must not be trusted after one.
	diverged *ReplayDivergenceError
}

// Runtime returns the owning runtime.
func (c *Ctx) Runtime() *Runtime { return c.rt }

// Mem returns the protection-checked memory accessor of the current
// thread. All arena data accesses must go through it.
func (c *Ctx) Mem() *mem.Accessor { return c.th.Accessor() }

// Heap returns the executing component's arena allocator, or the
// application heap for application threads (nil until EnsureAppHeap).
func (c *Ctx) Heap() *mem.Buddy {
	if c.comp != nil {
		return c.comp.heap
	}
	return c.rt.appHeap
}

// Now returns the current virtual time as this context's thread sees it.
// Inside a buffered round slice that is the shard-local view (the global
// watermark plus the thread's own charges); elsewhere it is the global
// clock.
func (c *Ctx) Now() time.Time { return c.rt.clk.At(c.th.Elapsed()) }

// Elapsed returns virtual time since boot (shard-local during rounds).
func (c *Ctx) Elapsed() time.Duration { return c.th.Elapsed() }

// Sleep suspends the thread for d of virtual time.
func (c *Ctx) Sleep(d time.Duration) { c.th.Sleep(d) }

// SleepPoll is Sleep(d) from a poll loop that only reads a condition other
// threads or timers change and that gives up once Elapsed reaches until;
// the scheduler may then charge the empty polls instead of running them
// (sched.Thread.SleepPoll).
func (c *Ctx) SleepPoll(d, until time.Duration) { c.th.SleepPoll(d, until) }

// InReplay reports whether the context is executing an encapsulated
// restoration replay.
func (c *Ctx) InReplay() bool { return c.replay != nil }

// Ret encodes a handler's results into a buffer the context owns, which
// holds them until they are delivered: a handler returns ctx.Ret(vals...).
// It keeps no reference to vals, so they stay on the handler's stack.
func (c *Ctx) Ret(vals ...any) (msg.Encoded, error) {
	enc, err := msg.AppendArgs(c.rets[:0], vals)
	if err != nil {
		return nil, err
	}
	c.rets = enc
	return enc, nil
}

// Bytes is e.Bytes(i) into a buffer the context owns, for a handler that
// only uses the bytes inside the call: they stay valid until the handler
// returns or calls Bytes again, across any yield in between.
func (c *Ctx) Bytes(e msg.Encoded, i int) ([]byte, error) {
	b, err := e.AppendBytes(c.scratch[:0], i)
	c.scratch = b
	return b, err
}

// ReplayRets returns the results the replayed call produced originally.
// Handlers that allocate externally visible resource numbers (fds, fids)
// consult it so the replayed allocation reproduces the original number
// exactly, regardless of how the log was shrunk since.
func (c *Ctx) ReplayRets() (msg.Encoded, bool) {
	if c.replay == nil {
		return nil, false
	}
	return c.replay.rec.Rets, true
}

// callerName identifies this context in messages and logs.
func (c *Ctx) callerName() string {
	if c.comp != nil {
		return c.comp.desc.Name
	}
	if c.appName != "" {
		return c.appName
	}
	return "app"
}

// Go spawns an additional application thread running fn. It is how the
// workloads create their 25 Nginx workers or per-connection handlers.
// The thread inherits the spawner's shard ordinal, so threads that share
// state stay on one shard baton and serialize against each other.
func (c *Ctx) Go(name string, fn func(*Ctx)) *sched.Thread {
	return c.goShard(name, c.th.ShardOrdinal(), fn)
}

// GoShard spawns an application thread pinned to an explicit shard
// ordinal. Workload drivers whose threads are mutually independent use
// distinct ordinals so the round engine can run them on different cores;
// the ordinal is folded modulo the configured shard count, so any
// non-negative value is valid at any -shards setting.
func (c *Ctx) GoShard(name string, shard int, fn func(*Ctx)) *sched.Thread {
	return c.goShard(name, shard, fn)
}

func (c *Ctx) goShard(name string, shard int, fn func(*Ctx)) *sched.Thread {
	pkru := mem.PKRU(mem.AllowAll)
	if c.rt.cfg.MessagePassing {
		pkru = mem.Allow(keyApp)
	}
	t := c.rt.sch.SpawnFrom(c.th, name, pkru, func(t *sched.Thread) {
		fn(&Ctx{rt: c.rt, th: t, appName: name})
	})
	if c.rt.cfg.MessagePassing {
		// Application threads are app-class: the shard engine pens them
		// until conductor quiescence so independent application domains'
		// handler work lands in one wide parallel round. In vanilla mode
		// calls execute on the caller's thread with direct state sharing,
		// so threads stay in the system class and the legacy baton
		// serializes them.
		t.SetClass(sched.ClassApp)
		t.SetShard(shard)
	}
	return t
}

// SaveRuntimeState records component runtime data that log replay cannot
// regenerate (the paper's LWIP TCP sequence/ACK numbers). Each call
// replaces the previous state; the reboot manager hands the latest value
// to RuntimeKeeper.InstallRuntimeState after replay. Calls made during
// replay are ignored so restoration cannot clobber the very state it is
// restoring from. The runtime keeps state, not a copy: the component must
// not change it before the next save.
func (c *Ctx) SaveRuntimeState(state []byte) {
	if c.comp == nil || c.replay != nil {
		return
	}
	c.comp.runtimeState = state
}

// Thread exposes the underlying simulated thread (for host integration).
func (c *Ctx) Thread() *sched.Thread { return c.th }

// BeginSyscall opens a trace span for one application system call — the
// causal root that every component hop, crash and recovery the call
// triggers will hang from. It returns the new span and the context's
// previous one; hand both to EndSyscall. Free (two zero returns) when
// tracing is off.
func (c *Ctx) BeginSyscall(name string) (sp, prev trace.SpanID) {
	tr := c.rt.tracer
	if tr == nil {
		return 0, 0
	}
	prev = c.span
	sp = tr.Begin(prev, trace.KindSyscall, c.callerName(), "", name)
	c.span = sp
	return sp, prev
}

// EndSyscall closes a span opened by BeginSyscall, recording err as its
// outcome, and restores the context's previous span.
func (c *Ctx) EndSyscall(sp, prev trace.SpanID, err error) {
	tr := c.rt.tracer
	if tr == nil || sp == 0 {
		return
	}
	tr.EndErr(sp, errnoString(err))
	c.span = prev
}
