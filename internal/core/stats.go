package core

import (
	"sort"
	//vampos:allow schedonly -- RuntimeStats counters are read by campaign worker goroutines mid-run, and the armed-fault count by handler slices on every shard; atomics keep the reads tear-free
	"sync/atomic"
	"time"

	"vampos/internal/aging"
	"vampos/internal/ckpt"
	"vampos/internal/mem"
	"vampos/internal/msg"
	"vampos/internal/sched"
)

// RuntimeStats counts runtime activity across the whole instance.
type RuntimeStats struct {
	Calls           uint64 // message-passing calls issued
	Messages        uint64 // messages pushed by the message thread
	DirectCalls     uint64 // vanilla / intra-merge function calls
	Injects         uint64 // fire-and-forget injections (virtual IRQs)
	Failures        uint64 // component crashes detected
	Hangs           uint64 // component hangs detected
	Microreboots    uint64 // session microreboots completed (rung 1)
	MicroEscalates  uint64 // microreboots escalated to component reboots
	FailedRestores  uint64 // restorations that themselves failed
	CompactErrors   uint64 // log compactions that returned an error
	VersionSwitches uint64 // fallback implementations swapped in (§VIII)
	Checkpoints     uint64 // incremental checkpoints taken
	CheckpointErrs  uint64 // incremental checkpoints that failed (old image kept)
	// Defense counters (zero unless Config.Defense.Enabled).
	TamperDetections  uint64 // arena-seal breaks detected (host tampering)
	PKRUBreaches      uint64 // PKRU-misuse attempts answered with a reboot
	TaintRollbacks    uint64 // taint-aware rollbacks to a pre-watermark image
	QuarantinedImages uint64 // checkpoint images quarantined as tainted
}

// runtimeCounters backs RuntimeStats with atomics: the counters are
// incremented from simulated threads while Stats() may be called from
// any goroutine (a monitor, a test asserting under -race), so plain
// fields would make every snapshot a data race.
type runtimeCounters struct {
	calls            atomic.Uint64
	messages         atomic.Uint64
	directCalls      atomic.Uint64
	injects          atomic.Uint64
	failures         atomic.Uint64
	hangs            atomic.Uint64
	microreboots     atomic.Uint64
	microEscalations atomic.Uint64
	failedRestores   atomic.Uint64
	compactErrors    atomic.Uint64
	versionSwitches  atomic.Uint64
	checkpoints      atomic.Uint64
	checkpointErrors atomic.Uint64
	tampers          atomic.Uint64
	breaches         atomic.Uint64
	rollbacks        atomic.Uint64
	quarantined      atomic.Uint64
	// armedFaults is len(Runtime.armed), stored under armedMu, so that
	// checkFault skips the lock while nothing is armed.
	armedFaults atomic.Int32
}

// RebootRecord describes one completed component(-group) reboot; the
// Fig. 6 experiment aggregates these.
type RebootRecord struct {
	Group           string
	Components      []string
	Reason          string
	VirtualDuration time.Duration
	WallDuration    time.Duration
	ReplayedEntries int
	RestoredPages   int
	At              time.Time
	// TaintWatermark is the first suspect global seq honoured by this
	// restore (zero when no member was tainted). RestoredEpochSeq is the
	// epoch seq of the image the tainted member actually landed on — the
	// defense oracle asserts RestoredEpochSeq < TaintWatermark.
	TaintWatermark   uint64
	RestoredEpochSeq uint64
	// QuarantinedImages counts checkpoint images newly quarantined by this
	// restore's watermark.
	QuarantinedImages int
	// LayoutFingerprints holds each member's post-restore arena layout
	// fingerprint, parallel to Components (nil unless Defense.Enabled).
	LayoutFingerprints []uint64
}

// ComponentStats is the per-component read surface: every fact the
// runtime keeps about one component (its group, log, arena, checkpoints,
// layout and aging) is read from this one snapshot.
type ComponentStats struct {
	Name     string
	Group    string
	Key      mem.Key
	Stateful bool
	Failures uint64
	Reboots  uint64
	// Microreboots counts session-granular recoveries that completed at
	// rung 1 without rebooting the component.
	Microreboots uint64
	LogLen       int
	LogStats     msg.LogStats
	DomainBytes  int64
	Heap         mem.BuddyStats
	Pending      int
	// Ckpt is the component's incremental-checkpoint accounting (zero
	// for components that are not checkpoint-eligible). It survives full
	// restarts and version switches.
	Ckpt ckpt.Stats
	// Images is the metadata of the retained checkpoint images, oldest
	// first; nil when defense is off or the component is not
	// checkpoint-eligible. Oracles assert quarantine discipline on it.
	Images []ckpt.ImageMeta
	// LayoutFingerprint is the arena-layout fingerprint as of the last
	// boot or reboot (zero before the first reboot when defense is off).
	LayoutFingerprint uint64
	// Aging is the adaptive-rejuvenation monitor's accounting; nil when
	// no controller runs or the component is not one of its targets.
	Aging *aging.Stats
	// Calls/Errors/Busy count completed inbound calls, calls that
	// returned an error, and cumulative virtual handler time (replay
	// excluded).
	Calls  uint64
	Errors uint64
	Busy   time.Duration
}

// Stats returns a snapshot of the runtime counters. Safe to call from
// any goroutine.
func (rt *Runtime) Stats() RuntimeStats {
	return RuntimeStats{
		Calls:             rt.stats.calls.Load(),
		Messages:          rt.stats.messages.Load(),
		DirectCalls:       rt.stats.directCalls.Load(),
		Injects:           rt.stats.injects.Load(),
		Failures:          rt.stats.failures.Load(),
		Hangs:             rt.stats.hangs.Load(),
		Microreboots:      rt.stats.microreboots.Load(),
		MicroEscalates:    rt.stats.microEscalations.Load(),
		FailedRestores:    rt.stats.failedRestores.Load(),
		CompactErrors:     rt.stats.compactErrors.Load(),
		VersionSwitches:   rt.stats.versionSwitches.Load(),
		Checkpoints:       rt.stats.checkpoints.Load(),
		CheckpointErrs:    rt.stats.checkpointErrors.Load(),
		TamperDetections:  rt.stats.tampers.Load(),
		PKRUBreaches:      rt.stats.breaches.Load(),
		TaintRollbacks:    rt.stats.rollbacks.Load(),
		QuarantinedImages: rt.stats.quarantined.Load(),
	}
}

// SchedStats returns the scheduler counters (dispatches etc.).
func (rt *Runtime) SchedStats() sched.Stats { return rt.sch.Stats() }

// Reboots returns the completed reboot records in order. Safe to call
// from any goroutine.
func (rt *Runtime) Reboots() []RebootRecord { return copyRecords(rt, &rt.reboots) }

// copyRecords snapshots one of the record lists recMu guards.
func copyRecords[T any](rt *Runtime, recs *[]T) []T {
	rt.recMu.Lock()
	defer rt.recMu.Unlock()
	out := make([]T, len(*recs))
	copy(out, *recs)
	return out
}

// ComponentStats returns the health view of one component.
func (rt *Runtime) ComponentStats(name string) (ComponentStats, bool) {
	c, ok := rt.comps[name]
	if !ok {
		return ComponentStats{}, false
	}
	cs := ComponentStats{
		Name:              c.desc.Name,
		Stateful:          c.desc.Stateful,
		Failures:          c.failures.Load(),
		Reboots:           c.reboots.Load(),
		Microreboots:      c.micro.Load(),
		Calls:             c.calls.Load(),
		Errors:            c.errs.Load(),
		Busy:              time.Duration(c.busyV.Load()),
		LayoutFingerprint: c.layoutFP.Load(),
	}
	if c.group != nil {
		cs.Group = c.group.name
		cs.Key = c.group.key
		cs.Pending = c.group.mailbox.Pending()
	}
	if c.domain != nil {
		cs.LogLen = c.domain.Log().Len()
		cs.LogStats = c.domain.Log().Stats()
		cs.DomainBytes = c.domain.BytesInUse()
	}
	if c.heap != nil {
		cs.Heap = c.heap.Stats()
	}
	if c.tracker != nil {
		cs.Ckpt = c.tracker.Stats()
	}
	if c.images != nil && rt.cfg.Defense.Enabled {
		cs.Images = c.images.hist.Metas()
	}
	if c.aging != nil {
		st := c.aging.Stats()
		cs.Aging = &st
	}
	return cs, true
}

// LogRecords returns decoded views of a component's retained
// restoration-log records (nil for unknown or unlogged components).
// Read-only observation hook: property tests audit the session
// invariants — opener liveness, class discipline — on it.
func (rt *Runtime) LogRecords(name string) ([]msg.RecordView, error) {
	c, ok := rt.comps[name]
	if !ok || c.domain == nil {
		return nil, nil
	}
	return c.domain.Log().Entries()
}

// SessionLive reports whether a component's log retains a live
// (successful, not closed) opener for the session — the precondition
// session microreboot attribution checks before attempting rung 1.
func (rt *Runtime) SessionLive(name string, session msg.SessionID) bool {
	c, ok := rt.comps[name]
	if !ok || c.domain == nil {
		return false
	}
	return c.domain.Log().HasLiveOpener(session)
}

// DomainBytes sums the bytes in use across every message domain: the
// instance's logging/message space overhead (Fig. 7b).
func (rt *Runtime) DomainBytes() int64 {
	var n int64
	for _, c := range rt.order {
		if c.domain != nil {
			n += c.domain.BytesInUse()
		}
	}
	return n
}

// ResidentBytes reports materialised guest memory (Fig. 7b).
func (rt *Runtime) ResidentBytes() int64 { return rt.memry.ResidentBytes() }

// InjectionPoint is one armable fault site: a component × exported
// function cell of the fault-injection space. Campaign engines enumerate
// these from the registry instead of hard-coding trial lists.
type InjectionPoint struct {
	// Component is the registered component name.
	Component string
	// Fn is the exported function name.
	Fn string
	// Logged marks functions covered by a log policy: their calls are
	// replayed during encapsulated restoration.
	Logged bool
	// Stateful mirrors the component descriptor.
	Stateful bool
	// Unrebootable marks documented-unrebootable components (VIRTIO):
	// campaigns must classify their failures as expected, not as
	// regressions.
	Unrebootable bool
	// Sessionful marks functions whose faults are attributable to one
	// session (the component implements SessionEvictor and the
	// function's row sets FaultByArg0): under the Microreboot
	// configuration these are the per-session fault sites where rung-1
	// recovery applies.
	Sessionful bool
	// Checkpointed marks checkpoint-eligible components (Stateful with
	// Checkpoint set): the components whose durable arenas the attack
	// campaign's tamper faults target, since only they retain images a
	// taint-aware rollback can land on.
	Checkpointed bool
}

// InjectionPoints enumerates every armable fault site in registration
// order, functions sorted within each component. The enumeration is the
// ground truth for fault-injection campaigns: every registered component
// and every exported function appears exactly once.
func (rt *Runtime) InjectionPoints() []InjectionPoint {
	var out []InjectionPoint
	for _, c := range rt.order {
		fns := make([]string, 0, len(c.exports))
		for fn := range c.exports {
			fns = append(fns, fn)
		}
		sort.Strings(fns)
		_, evicts := c.comp.(SessionEvictor)
		for _, fn := range fns {
			pol := c.policies[fn]
			out = append(out, InjectionPoint{
				Component:    c.desc.Name,
				Fn:           fn,
				Logged:       pol.Class != 0,
				Stateful:     c.desc.Stateful,
				Unrebootable: c.desc.Unrebootable,
				Sessionful:   evicts && pol.FaultByArg0,
				Checkpointed: c.desc.Stateful && c.desc.Checkpoint,
			})
		}
	}
	return out
}

// Exports returns a component's exported function names in sorted order
// (nil for an unknown component).
func (rt *Runtime) Exports(name string) []string {
	c, ok := rt.comps[name]
	if !ok {
		return nil
	}
	fns := make([]string, 0, len(c.exports))
	for fn := range c.exports {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	return fns
}
