// Package trace is VampOS's causal flight recorder: a bounded,
// low-overhead event ring that records what the runtime's interposition
// layer, scheduler, message thread, logs and reboot manager do, stitched
// together by span parent links so one application system call can be
// followed across every component hop, crash, and recovery phase it
// causes.
//
// The recorder deliberately lives outside every component domain (it is
// host-side Go memory, like the scheduler itself), so it survives
// component reboots and full restarts: the recovery it observes cannot
// destroy the observation.
//
// Design rules:
//
//   - A nil *Recorder is valid and free: every method checks the
//     receiver first, so the runtime's hooks cost a predicted branch
//     when tracing is off (the Fig. 5 baselines must not move).
//   - High-volume events (syscalls, calls, hops, log ops) live in a
//     fixed ring that overwrites the oldest entry; recovery-critical
//     events (faults, crashes, detections, reboots and their phases)
//     are "sticky" and never evicted, so a recovery timeline survives
//     any amount of later traffic.
//   - Every event carries both virtual-clock and wall-clock timestamps:
//     virtual time is the calibrated cost model the experiments report,
//     wall time is what the simulation actually spent.
package trace

import (
	"sort"
	//vampos:allow schedonly -- Recorder.mu lets exporters drain the flight recorder from outside the simulated-thread loop (forensics of a hung trial)
	"sync"
	"time"
)

// SpanID identifies one span (or instant) in a recorder. Zero means
// "no span": a zero parent starts a new causal root.
type SpanID uint64

// Kind classifies an event.
type Kind uint8

// Event kinds. Span kinds open with Begin and close with End; instant
// kinds are emitted complete.
const (
	// KindSyscall is an application system call: the causal root of
	// almost every trace.
	KindSyscall Kind = iota + 1
	// KindCall is one cross-component message call as the caller sees
	// it: from submission to wake-up, retries included.
	KindCall
	// KindDirect is a vanilla-mode or intra-merge direct function call.
	KindDirect
	// KindExec is the handler execution on the target component's
	// worker thread. A crash leaves it open.
	KindExec
	// KindReboot covers one component-group reboot end to end.
	KindReboot
	// KindPhase is one reboot lifecycle phase (quiesce, restore,
	// replay, resume), a child of a KindReboot span.
	KindPhase
	// KindPush and KindPull are the message-domain hops of a call.
	KindPush
	KindPull
	// KindFault marks an armed fault firing (instant).
	KindFault
	// KindCrash marks a handler panic caught by the worker (instant).
	KindCrash
	// KindDetect marks the runtime attributing a failure or the
	// watchdog declaring a hang (instant).
	KindDetect
	// KindLogOp is a restoration-log mutation (append, drop, compact,
	// replay) observed from msg.Log (instant).
	KindLogOp
	// KindDispatch is one scheduler dispatch (instant; only recorded
	// when the recorder was built WithDispatches).
	KindDispatch
	// KindHostIO is a host-side operation: a 9P request served, a
	// dropped frame (instant).
	KindHostIO
	// KindMark is a free-form annotation emitted by experiments.
	KindMark
	// KindCkpt covers one incremental checkpoint of a component: dirty
	// page delta capture, control-state save, and log truncation. It is a
	// span kind but deliberately NOT sticky — checkpoints recur for the
	// whole run, and making them sticky would grow the recorder without
	// bound. Recovery timelines do not need them: the restore phase of
	// the next reboot tells the same story.
	KindCkpt
	// KindRejuv covers one adaptive rejuvenation of a component: the
	// pre-reboot checkpoint and the proactive reboot it schedules are its
	// children. Like KindCkpt it is a span kind but NOT sticky —
	// rejuvenations recur for the whole run, and the sticky KindReboot
	// child (reason "rejuvenation") already preserves the recovery
	// timeline.
	KindRejuv
	// KindMicroreboot covers one session-granular recovery end to end:
	// evicting the faulted session's state from the live component and
	// replaying its surviving log slice. Sticky like KindReboot —
	// microreboots are recovery events, and an escalated one is the
	// causal parent of the component reboot that follows it.
	KindMicroreboot
)

func (k Kind) String() string {
	switch k {
	case KindSyscall:
		return "syscall"
	case KindCall:
		return "call"
	case KindDirect:
		return "direct"
	case KindExec:
		return "exec"
	case KindReboot:
		return "reboot"
	case KindPhase:
		return "phase"
	case KindPush:
		return "push"
	case KindPull:
		return "pull"
	case KindFault:
		return "fault"
	case KindCrash:
		return "crash"
	case KindDetect:
		return "detect"
	case KindLogOp:
		return "logop"
	case KindDispatch:
		return "dispatch"
	case KindHostIO:
		return "hostio"
	case KindMark:
		return "mark"
	case KindCkpt:
		return "ckpt"
	case KindRejuv:
		return "rejuv"
	case KindMicroreboot:
		return "microreboot"
	default:
		return "event"
	}
}

// sticky reports whether events of this kind are recovery-critical and
// must never be evicted from the recorder.
func (k Kind) sticky() bool {
	switch k {
	case KindReboot, KindPhase, KindFault, KindCrash, KindDetect, KindMicroreboot:
		return true
	}
	return false
}

// Event is one recorded span or instant.
type Event struct {
	ID     SpanID
	Parent SpanID
	Kind   Kind
	// Component is the executing (or subject) side: "app" for
	// application threads, a component or group name otherwise.
	Component string
	// Peer is the other side of a call or hop (the callee), empty when
	// not applicable.
	Peer string
	// Name is the function, phase, or operation name.
	Name string
	// Detail carries the error string, fault reason, or annotation.
	Detail string
	// VirtStart/VirtEnd are virtual-clock offsets since boot. For
	// instants they are equal.
	VirtStart, VirtEnd time.Duration
	// WallStart/WallEnd are wall-clock offsets since the recorder was
	// created.
	WallStart, WallEnd time.Duration
	// Open marks a span that never ended (the handler crashed, or the
	// snapshot was taken mid-call).
	Open bool
}

// VirtDuration is the span's virtual-time extent.
func (e Event) VirtDuration() time.Duration { return e.VirtEnd - e.VirtStart }

// WallDuration is the span's wall-time extent.
func (e Event) WallDuration() time.Duration { return e.WallEnd - e.WallStart }

// Instant reports whether the event is an instant (no extent).
func (e Event) Instant() bool {
	switch e.Kind {
	case KindPush, KindPull, KindFault, KindCrash, KindDetect,
		KindLogOp, KindDispatch, KindHostIO, KindMark:
		return true
	}
	return false
}

// DefaultCapacity is the ring size when WithCapacity is not given:
// large enough to hold a demo run end to end, small enough (tens of MB)
// to attach casually.
const DefaultCapacity = 1 << 18

// Option configures a Recorder.
type Option func(*Recorder)

// WithCapacity sets the ring capacity (events). Values below 64 are
// raised to 64.
func WithCapacity(n int) Option {
	return func(r *Recorder) {
		if n < 64 {
			n = 64
		}
		r.cap = n
	}
}

// WithDispatches asks the runtime to record every scheduler dispatch.
// Off by default: dispatches dominate event volume without adding much
// causality (the hop events already imply them).
func WithDispatches() Option {
	return func(r *Recorder) { r.dispatches = true }
}

// Recorder is one flight recorder. All methods are safe on a nil
// receiver (no-ops) and safe for concurrent use.
type Recorder struct {
	name       string
	now        func() time.Duration // virtual clock
	wall0      time.Time
	cap        int
	dispatches bool

	mu      sync.Mutex
	nextID  SpanID
	ring    []Event // ring storage, len <= cap
	next    int     // next ring slot to write
	wrapped bool
	sticky  []Event          // never-evicted events, insertion order
	open    map[SpanID]place // open span -> location
	dropped uint64
}

// place locates an open span.
type place struct {
	inSticky bool
	idx      int
}

// New creates a recorder named name whose virtual timestamps come from
// now (typically clock.Virtual.Elapsed). A nil now is treated as a
// zero clock.
func New(name string, now func() time.Duration, opts ...Option) *Recorder {
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	r := &Recorder{
		name:  name,
		now:   now,
		wall0: time.Now(),
		cap:   DefaultCapacity,
		open:  make(map[SpanID]place),
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Name returns the recorder's name (the Chrome-trace process label).
func (r *Recorder) Name() string {
	if r == nil {
		return ""
	}
	return r.name
}

// CapturesDispatches reports whether WithDispatches was given.
func (r *Recorder) CapturesDispatches() bool { return r != nil && r.dispatches }

// Dropped returns how many events were evicted from the ring.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Begin opens a span. It returns the new span's id, or 0 on a nil
// recorder.
func (r *Recorder) Begin(parent SpanID, kind Kind, component, peer, name string) SpanID {
	if r == nil {
		return 0
	}
	v := r.now()
	w := time.Since(r.wall0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	id := r.nextID
	e := Event{
		ID: id, Parent: parent, Kind: kind,
		Component: component, Peer: peer, Name: name,
		VirtStart: v, VirtEnd: v, WallStart: w, WallEnd: w, Open: true,
	}
	r.open[id] = r.put(e)
	return id
}

// End closes a span.
func (r *Recorder) End(sp SpanID) { r.EndErr(sp, "") }

// EndErr closes a span, recording errStr as its outcome. Ending an
// unknown or evicted span is a no-op.
func (r *Recorder) EndErr(sp SpanID, errStr string) {
	if r == nil || sp == 0 {
		return
	}
	v := r.now()
	w := time.Since(r.wall0)
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.open[sp]
	if !ok {
		return
	}
	delete(r.open, sp)
	var e *Event
	if p.inSticky {
		e = &r.sticky[p.idx]
	} else {
		e = &r.ring[p.idx]
	}
	if e.ID != sp {
		return // slot was recycled; the span is gone
	}
	e.VirtEnd, e.WallEnd = v, w
	e.Open = false
	if errStr != "" {
		e.Detail = errStr
	}
}

// Annotate appends detail text to an open span (e.g. "retry" on a call
// that survived its target's reboot).
func (r *Recorder) Annotate(sp SpanID, detail string) {
	if r == nil || sp == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.open[sp]
	if !ok {
		return
	}
	var e *Event
	if p.inSticky {
		e = &r.sticky[p.idx]
	} else {
		e = &r.ring[p.idx]
	}
	if e.ID != sp {
		return
	}
	if e.Detail != "" {
		e.Detail += "; "
	}
	e.Detail += detail
}

// Instant records a zero-extent event and returns its id.
func (r *Recorder) Instant(parent SpanID, kind Kind, component, name, detail string) SpanID {
	if r == nil {
		return 0
	}
	v := r.now()
	w := time.Since(r.wall0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	id := r.nextID
	r.put(Event{
		ID: id, Parent: parent, Kind: kind,
		Component: component, Name: name, Detail: detail,
		VirtStart: v, VirtEnd: v, WallStart: w, WallEnd: w,
	})
	return id
}

// put stores an event, evicting the oldest ring entry when full, and
// returns where it went. Caller holds r.mu.
func (r *Recorder) put(e Event) place {
	if e.Kind.sticky() {
		r.sticky = append(r.sticky, e)
		return place{inSticky: true, idx: len(r.sticky) - 1}
	}
	if len(r.ring) < r.cap {
		r.ring = append(r.ring, e)
		return place{idx: len(r.ring) - 1}
	}
	old := &r.ring[r.next]
	if old.Open {
		// Evicting an open span would break the causal chain of
		// whatever it is an ancestor of (the crash acceptance path runs
		// through open spans). Promote it to the sticky set instead.
		r.sticky = append(r.sticky, *old)
		r.open[old.ID] = place{inSticky: true, idx: len(r.sticky) - 1}
	} else {
		r.dropped++
	}
	idx := r.next
	r.ring[idx] = e
	r.next = (r.next + 1) % r.cap
	if r.next == 0 {
		r.wrapped = true
	}
	return place{idx: idx}
}

// Snapshot returns every retained event sorted by virtual start time
// (ties broken by id, i.e. record order). Spans still open are returned
// with Open=true and their end stamps set to the current clocks.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	v := r.now()
	w := time.Since(r.wall0)
	r.mu.Lock()
	out := make([]Event, 0, len(r.ring)+len(r.sticky))
	if r.wrapped {
		out = append(out, r.ring[r.next:]...)
		out = append(out, r.ring[:r.next]...)
	} else {
		out = append(out, r.ring...)
	}
	out = append(out, r.sticky...)
	r.mu.Unlock()
	for i := range out {
		if out[i].Open {
			out[i].VirtEnd, out[i].WallEnd = v, w
		}
	}
	sortEvents(out)
	return out
}

// sortEvents orders events by (VirtStart, ID): a stable chronological
// order with causes before effects (parents get lower ids).
func sortEvents(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].VirtStart != evs[j].VirtStart {
			return evs[i].VirtStart < evs[j].VirtStart
		}
		return evs[i].ID < evs[j].ID
	})
}
