package core

import (
	"fmt"
	//vampos:allow schedonly -- failure/reboot counters are snapshotted by ComponentStats from arbitrary goroutines (campaign workers) while the runtime increments them
	"sync/atomic"
	"time"

	"vampos/internal/aging"
	"vampos/internal/ckpt"
	"vampos/internal/mem"
	"vampos/internal/msg"
)

// Handler is one function a component exposes at its interface. Handlers
// run on the component's thread (or on the caller's thread in vanilla /
// merged configurations). args is the call's encoding in a buffer its
// owner reuses once the handler returns — the worker's pull buffer, the
// caller's slot on a direct call, the log's copy on replay — so a handler
// keeps only what its accessors return, never args itself. A handler
// returns its results as ctx.Ret(vals...), the results of a call it made,
// or nil, which transports as the empty list.
type Handler func(ctx *Ctx, args msg.Encoded) (msg.Encoded, error)

// Descriptor declares a component's static properties to the runtime.
type Descriptor struct {
	// Name is the component's registration name ("vfs", "lwip", …).
	Name string
	// Stateful components get function-call logging, checkpointing and
	// encapsulated restoration; stateless ones reboot by plain re-init.
	Stateful bool
	// Checkpoint selects checkpoint-based initialization (§V-E): restore
	// the post-boot memory image instead of re-running Init, for
	// components whose Init has side effects on other components.
	Checkpoint bool
	// Unrebootable marks components whose state is shared with the host
	// (VIRTIO): the reboot manager refuses to restart them (§VIII).
	Unrebootable bool
	// HeapPages is the component arena size in pages (power of two).
	HeapPages int
	// DomainPages is the message-domain size in pages (power of two).
	DomainPages int
	// Deps lists the components this one sends messages to; the
	// dependency-aware scheduler derives its correlation from the actual
	// message flow, so Deps is documentation plus Table I metadata.
	Deps []string
}

// Component is one unikernel component (Table I).
type Component interface {
	// Describe returns the component's static descriptor. It must be
	// constant for the component's lifetime.
	Describe() Descriptor
	// Init boots the component. It runs on the component's own thread
	// and may call already-booted components through ctx.
	Init(ctx *Ctx) error
	// Exports returns the component's message interface. The returned
	// map must be constant for the component's lifetime.
	Exports() map[string]Handler
}

// StateSaver is implemented by stateful components whose control state
// (fd tables, socket tables…) lives in Go structs rather than the arena;
// the checkpoint mechanism saves and restores it alongside the memory
// snapshot.
type StateSaver interface {
	// SaveState serialises control state.
	SaveState() ([]byte, error)
	// RestoreState replaces control state from a SaveState blob.
	RestoreState(p []byte) error
}

// ColdResetter is implemented by components that keep control state in Go
// structs but reboot by cold re-init: the reboot manager calls Reset
// before re-running Init so no aged state survives.
type ColdResetter interface {
	Reset()
}

// Slot names the value of a call a session's resource number is read
// from. Every namespace numbers its resources with an integer in
// argument or result zero.
type Slot uint8

// Session slots.
const (
	// NoSlot: the call names no session.
	NoSlot Slot = iota
	// Arg0 reads the call's argument zero (the fd, socket or fid it uses).
	Arg0
	// Ret0 reads the call's result zero (the resource an opener made).
	Ret0
)

// Read returns the session slot s names, as an id of namespace ns, or
// none when s is NoSlot or the slot holds no integer. args and rets are
// read in place and not retained.
func (s Slot) Read(ns *msg.Namespace, args, rets msg.Encoded) msg.SessionID {
	from := args
	switch s {
	case NoSlot:
		return ""
	case Ret0:
		from = rets
	}
	n, err := from.Int(0)
	if err != nil {
		return ""
	}
	return ns.ID(n)
}

// LogPolicy is one exported function's row of its component's session
// table: how its calls are logged for encapsulated restoration (§V-F,
// Table II) and which session a fault in it belongs to. The record of a
// call that returned an error is always dropped: a failed call changed
// no state, and polling patterns (EAGAIN accept/recv) would otherwise
// flood the log.
type LogPolicy struct {
	// Class is the record's shrink class. Zero (msg.Class starts at one)
	// means the call is not logged.
	Class msg.Class
	// Session is the slot that names the record's session; NoSlot logs
	// it under none (component-wide durables: mount, mkdir).
	Session Slot
	// FaultByArg0 attributes a fault in the call to the session its
	// argument zero names. Attribution reads the call before the handler
	// ran, so it never reads a result: an opener's new resource never
	// existed when it failed.
	FaultByArg0 bool
}

// FaultSession returns the session a fault in a call with args is
// attributed to, or none when the row attributes no fault.
func (p LogPolicy) FaultSession(ns *msg.Namespace, args msg.Encoded) msg.SessionID {
	if !p.FaultByArg0 {
		return ""
	}
	return Arg0.Read(ns, args, nil)
}

// LogPolicyProvider is implemented by stateful components. It returns
// the namespace the component's sessions live in (nil when no row names
// a session) and one row per function that is logged or attributable.
// Functions without a row are neither; state-unchanged functions
// (fstat-style reads) are simply omitted, which is the paper's "skip
// functions that do not change the component states".
type LogPolicyProvider interface {
	LogPolicies() (*msg.Namespace, map[string]LogPolicy)
}

// SessionEvictor is implemented by session-bearing components that
// support session microreboots: remove one session's live state from
// the running component so that replaying the session's log slice
// rebuilds it from scratch. Eviction must not disturb other sessions or
// downstream components — the replayed opener feeds its outbound calls
// from the log, so whatever downstream resources the session holds
// (a backing fid, an lwip socket under a vfs fd) must stay live.
// Returning an error refuses the eviction and escalates the failure to
// a whole-component reboot.
type SessionEvictor interface {
	// EvictSession removes the live state of resource n, the number of
	// the session in the component's namespace.
	EvictSession(ctx *Ctx, n int) error
}

// sessionTable reads comp's session table: its namespace and its rows
// (none for a component that logs nothing). A row that reads a session
// slot needs the namespace to mint the session in.
func sessionTable(comp Component) (*msg.Namespace, map[string]LogPolicy, error) {
	lp, ok := comp.(LogPolicyProvider)
	if !ok {
		return nil, nil, nil
	}
	ns, rows := lp.LogPolicies()
	for _, fn := range msg.SortedKeys(nil, rows) {
		if p := rows[fn]; ns == nil && (p.Session != NoSlot || p.FaultByArg0) {
			return nil, nil, fmt.Errorf("core: %s.%s reads a session but its component names no session namespace", comp.Describe().Name, fn)
		}
	}
	return ns, rows, nil
}

// Compactor is implemented by components that support threshold-driven
// log compaction (§V-F): when the log exceeds the configured threshold
// the runtime invokes CompactLog, which may replace entry runs with
// synthetic state-install entries.
type Compactor interface {
	CompactLog(log *msg.Log) error
}

// RuntimeKeeper is implemented by components that must persist runtime
// data that replay cannot regenerate — the paper's LWIP sequence/ACK
// numbers. The component pushes updates with Ctx.SaveRuntimeState; after
// replay the reboot manager hands the latest value to InstallRuntimeState.
type RuntimeKeeper interface {
	InstallRuntimeState(ctx *Ctx, state []byte) error
}

// component is the runtime's per-component record.
type component struct {
	comp     Component
	desc     Descriptor
	exports  map[string]Handler
	policies map[string]LogPolicy
	sessions *msg.Namespace // the namespace policies' session slots read
	group    *group

	heapBase  mem.Addr
	heapPages int
	heap      *mem.Buddy
	domain    *msg.Domain

	runtimeState []byte

	// images is what the component restores from; nil for components that
	// are not checkpoint-eligible or when the runtime is not
	// message-passing. tracker carries the incremental-checkpoint cadence
	// and lifetime statistics of the components that have a store; it
	// outlives every store. Both are touched only under the cooperative
	// scheduler baton.
	images  *imageStore
	tracker *ckpt.Tracker
	// aging is the adaptive-rejuvenation monitor; nil unless the
	// component is a target of the controller Boot started.
	aging *aging.Monitor

	// layoutFP is the arena-layout fingerprint as of the last reboot under
	// defense; oracles read it from campaign goroutines.
	layoutFP atomic.Uint64
	// lastExecSeq is the seq of the newest inbound call whose handler has
	// completed on this component. At a quiescent point the just-finished
	// call's log record is still open (EndInbound runs on the message
	// thread), so MaxCompletedSeq lags one call behind what the arena
	// already reflects — seals use this to cover that call too. Reset at
	// restore: replayed state is covered by the log's own seq bookkeeping.
	lastExecSeq uint64
	// imageFrom is where the arena came from at the last restore.
	imageFrom imageChoice

	// fallback is the §VIII multi-version alternate implementation.
	fallback     Component
	fallbackUsed bool

	// failures, reboots and micro are atomics because ComponentStats
	// snapshots them from arbitrary goroutines while the runtime
	// increments them.
	failures atomic.Uint64
	reboots  atomic.Uint64
	micro    atomic.Uint64 // completed session microreboots

	// calls/errs/busyV count completed inbound calls, those that
	// returned an error, and the cumulative virtual time their handlers
	// ran, for ComponentStats. Atomics for the same reason as
	// failures/reboots. Replayed calls during restoration do not count —
	// replay latency is recovery cost, not service time.
	calls atomic.Uint64
	errs  atomic.Uint64
	busyV atomic.Int64 // virtual nanoseconds
}

// checkpoint is one image a component restores from: the post-init image
// of checkpoint-based initialization (§V-E), or an incremental capture.
type checkpoint struct {
	memSnap *mem.Snapshot
	heap    *mem.Buddy // allocator metadata at snapshot time; cloned on use
	control []byte
}

// group is a scheduling unit: one thread, one protection key, one
// mailbox. An unmerged component forms a singleton group; merging (§V-F)
// puts several components into one group.
type group struct {
	name    string
	members []*component
	key     mem.Key
	mailbox *msg.Domain
	// shard is the group's shard ordinal under the sharded-baton engine
	// (assigned in buildGroups; meaningless while Config.Shards == 0).
	shard int

	worker      *workerThread
	rebooting   bool
	currentSeq  uint64 // seq of the call being handled, 0 if idle
	busySinceV  time.Duration
	failedTwice bool // deterministic fault: fail-stop (§II-B)

	// curRec/curLog locate the log record of the inbound call the group
	// is currently handling; outbound return values append there.
	curRec msg.Ref
	curLog *msg.Log

	// rec is the group's recovery: the one in flight while rebooting is
	// set, the last one after (nil before the first). See recovery.go.
	rec *recovery

	// failStopNotified marks that the graceful-termination handler ran.
	failStopNotified bool
}

func (g *group) member(name string) *component {
	for _, c := range g.members {
		if c.desc.Name == name {
			return c
		}
	}
	return nil
}

func (g *group) String() string { return fmt.Sprintf("group(%s)", g.name) }
