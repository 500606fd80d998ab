package msg

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"vampos/internal/mem"
)

// SessionID groups log entries that belong to one resource instance — a
// file descriptor, a socket, a 9P fid. The id is the *raw* resource
// number (e.g. "fd:5"): reuse of a number is what allows the shrinker to
// discard the previous open/close pair for it, reproducing the paper's
// "-1 entries for open()" behaviour (Table III).
type SessionID string

// Namespace is the set of session ids one component names its resources
// by: "<name>:<n>" for resource number n ("fd:5", "sock:2", "fid:9").
// The ids below 256 come from a table built once, so naming the session
// of a run's lowest-numbered resources allocates nothing.
type Namespace struct {
	prefix string
	ids    [256]SessionID
}

// NewNamespace returns the namespace whose ids read "<name>:<n>".
func NewNamespace(name string) *Namespace {
	ns := &Namespace{prefix: name + ":"}
	for n := range ns.ids {
		ns.ids[n] = SessionID(ns.prefix + strconv.Itoa(n))
	}
	return ns
}

// ID returns resource n's session id.
func (ns *Namespace) ID(n int) SessionID {
	if uint(n) < uint(len(ns.ids)) {
		return ns.ids[n]
	}
	return SessionID(ns.prefix + strconv.Itoa(n))
}

// Parse returns the resource number id names, or false when id is not
// an id of ns.
func (ns *Namespace) Parse(id SessionID) (int, bool) {
	num, ok := strings.CutPrefix(string(id), ns.prefix)
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(num)
	return n, err == nil
}

// Class determines how the session-aware shrinker treats a logged call
// (paper §V-F).
type Class uint8

// Log entry classes.
const (
	// ClassDurable entries persist until their whole session is discarded
	// (mount, setsockopt, bind, listen…).
	ClassDurable Class = iota + 1
	// ClassOpener starts a session (open, socket, pipe). Logging an opener
	// whose session id was previously closed discards the stale session.
	ClassOpener
	// ClassTransient entries (read, write) become unnecessary once their
	// session's canceling function runs and are removed by it.
	ClassTransient
	// ClassCanceler is a canceling function (close, shutdown): it removes
	// the session's transient entries immediately and marks the session
	// closed so a later opener reusing the id can drop the remainder.
	ClassCanceler
)

func (c Class) String() string {
	switch c {
	case ClassDurable:
		return "durable"
	case ClassOpener:
		return "opener"
	case ClassTransient:
		return "transient"
	case ClassCanceler:
		return "canceler"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Outbound is the logged result of a call the component made to another
// component while handling one inbound call. During encapsulated
// restoration the replayer feeds these back instead of re-invoking the
// other component (paper Fig. 3).
type Outbound struct {
	Target string
	Fn     string
	Err    string
	rets   mem.Addr
	retsN  int
}

// ErrStaleRecord reports a write through a Ref whose record has left the
// log (dropped, shrunk, compacted, truncated or reset). Its slot may hold
// another record by now; the write is refused rather than landing there.
var ErrStaleRecord = errors.New("msg: stale log record")

// Ref is a caller's handle on one logged record: the record's slot in its
// log's table and the slot's generation when the record took it. The zero
// Ref means "not logged". A Ref may outlive its record: every use checks
// the generation, so it can never reach the slot's next occupant.
type Ref struct {
	slot, gen uint32
}

// Logged reports whether r names a record, live or since removed.
func (r Ref) Logged() bool { return r.gen != 0 }

// Record is one logged inbound call: a slot of its log's table.
type Record struct {
	Seq       uint64
	Fn        string
	Session   SessionID
	Class     Class
	Err       string
	Synthetic bool
	Outbound  []Outbound
	args      mem.Addr
	argsN     int
	rets      mem.Addr
	retsN     int
	open      bool // still in flight (EndInbound not yet called)
	// gen counts the slot's occupants and vacancies: odd while a record
	// holds the slot, even while it is free.
	gen uint32
}

// LogStats summarises log activity for the Table III/IV experiments.
type LogStats struct {
	Appended  uint64
	Removed   uint64
	Compacted uint64 // entries removed by threshold compaction
	Replayed  uint64
	// Truncated counts non-durable entries dropped by epoch truncation;
	// Folded counts durable entries whose effects were folded into a
	// checkpoint image instead of being retained for replay.
	Truncated uint64
	Folded    uint64
}

// Log is the function-call and return-value log of one component, stored
// in its message domain.
type Log struct {
	d *Domain
	// The record table: recs holds every slot, live or free; free lists
	// the free slots; order lists the live slots in append order. A
	// removed record's slot, with its Outbound array, goes to the next
	// record, so once the table has grown to the log's peak, logging a
	// call allocates nothing.
	recs   []Record
	free   []uint32
	order  []uint32
	closed map[SessionID]bool
	stats  LogStats
	// ShrinkEnabled controls session-aware shrinking; the Table III
	// "normal log entries" column is measured with it off.
	ShrinkEnabled bool
	// Observer, if set, is told about every log mutation: op is one of
	// "append", "drop", "shrink", "compact", "truncate" or "replay"; fn
	// names the function or session involved; n counts affected records.
	// The runtime's flight recorder hooks it to trace log activity.
	Observer func(op, fn string, n int)

	// epoch counts completed truncations; epochSeq is the highest sequence
	// number covered by the current checkpoint epoch — every completed
	// record at or below it has been dropped, because the checkpoint image
	// already contains its effects.
	epoch    uint64
	epochSeq uint64
}

// note reports a mutation to the observer, if any.
func (l *Log) note(op, fn string, n int) {
	if l.Observer != nil && n > 0 {
		l.Observer(op, fn, n)
	}
}

func newLog(d *Domain) *Log {
	return &Log{d: d, closed: make(map[SessionID]bool), ShrinkEnabled: true}
}

// Len returns the number of retained records.
func (l *Log) Len() int { return len(l.order) }

// Stats returns a copy of the log counters.
func (l *Log) Stats() LogStats { return l.stats }

// BeginInbound appends an in-flight record for a call into the component.
// The arguments are stored into domain memory before the component runs,
// matching the paper's dispatch order (§V-C). Session and class are
// applied at EndInbound, when return values (and hence opener session
// ids) are known. Tracking of which record is currently being handled is
// the runtime's job: the call may queue behind others in the mailbox.
func (l *Log) BeginInbound(seq uint64, fn string, args Args) (Ref, error) {
	p, err := l.d.encode(args)
	if err != nil {
		return Ref{}, err
	}
	return l.BeginInboundEncoded(seq, fn, p)
}

// BeginInboundEncoded is BeginInbound for arguments already encoded: it
// copies args into domain memory.
func (l *Log) BeginInboundEncoded(seq uint64, fn string, args Encoded) (Ref, error) {
	addr, n, err := l.d.store(args)
	if err != nil {
		return Ref{}, err
	}
	return l.add(Record{Seq: seq, Fn: fn, args: addr, argsN: n, open: true, Class: ClassDurable}), nil
}

// add places r in a free slot, growing the table only when none is left,
// and appends it to the log.
func (l *Log) add(r Record) Ref {
	var s uint32
	if n := len(l.free); n > 0 {
		s, l.free = l.free[n-1], l.free[:n-1]
	} else {
		s = uint32(len(l.recs))
		l.recs = append(l.recs, Record{})
	}
	e := &l.recs[s]
	r.gen, r.Outbound = e.gen+1, e.Outbound
	*e = r
	l.order = append(l.order, s)
	l.stats.Appended++
	l.note("append", r.Fn, 1)
	return Ref{s, r.gen}
}

// live returns the record ref names: nil for the zero Ref, and nil with
// ErrStaleRecord when its record has left the log.
func (l *Log) live(ref Ref) (*Record, error) {
	switch {
	case !ref.Logged():
		return nil, nil
	case int(ref.slot) < len(l.recs) && l.recs[ref.slot].gen == ref.gen:
		return &l.recs[ref.slot], nil
	}
	return nil, ErrStaleRecord
}

// AppendOutboundTo attaches the logged return values of an outbound call
// to the record whose handling produced it. A zero ref is a no-op; a
// stale one gets ErrStaleRecord.
func (l *Log) AppendOutboundTo(ref Ref, target, fn string, rets Encoded, callErr string) error {
	r, err := l.live(ref)
	if r == nil {
		return err
	}
	addr, n, err := l.d.store(rets)
	if err != nil {
		return err
	}
	r.Outbound = append(r.Outbound, Outbound{
		Target: target, Fn: fn, Err: callErr, rets: addr, retsN: n,
	})
	return nil
}

// EndInbound finalises the in-flight record with its results, session,
// class and error outcome, then applies the session-aware shrinking
// rules. The results are stored so that a replaying handler can
// reproduce the exact resource numbers (fds, fids) the original call
// returned, independent of how the log has been shrunk since. A zero ref
// is a no-op; a stale one gets ErrStaleRecord.
func (l *Log) EndInbound(ref Ref, session SessionID, class Class, rets Args, callErr string) error {
	p, err := l.d.encode(rets)
	if err != nil {
		return err
	}
	return l.EndInboundEncoded(ref, session, class, p, callErr)
}

// EndInboundEncoded is EndInbound for results already encoded.
func (l *Log) EndInboundEncoded(ref Ref, session SessionID, class Class, rets Encoded, callErr string) error {
	r, err := l.live(ref)
	if r == nil {
		return err
	}
	addr, n, err := l.d.store(rets)
	if err != nil {
		return err
	}
	r.rets, r.retsN = addr, n
	r.open = false
	r.Session = session
	r.Class = class
	r.Err = callErr
	if !l.ShrinkEnabled || session == "" {
		return nil
	}
	removedBefore := l.stats.Removed
	defer func() { l.note("shrink", string(session), int(l.stats.Removed-removedBefore)) }()
	switch class {
	case ClassCanceler:
		// Drop the session's transient entries now; keep opener/durables
		// (and this canceler) so replay reproduces resource numbering.
		l.removeWhere(func(e *Record) bool {
			return e != r && e.Session == session && e.Class == ClassTransient
		})
		l.closed[session] = true
	case ClassOpener:
		if l.closed[session] {
			// The resource number is being reused: the previous,
			// fully-closed session is now unnecessary for restoration.
			l.removeWhere(func(e *Record) bool {
				return e != r && e.Session == session
			})
			delete(l.closed, session)
		}
	}
	return nil
}

// DropRecord removes a record, typically one whose call never completed
// because the component crashed while handling it. Replaying it would
// re-execute the crashing input with no logged outbound results, so the
// reboot manager discards it (the caller sees the call fail and retry).
// A zero or stale ref is a no-op. The record is found from the back of
// the log, where a call still in flight sits.
func (l *Log) DropRecord(ref Ref) {
	r, _ := l.live(ref)
	if r == nil {
		return
	}
	fn := r.Fn
	for i := len(l.order) - 1; ; i-- {
		if l.order[i] == ref.slot {
			l.order = slices.Delete(l.order, i, i+1)
			break
		}
	}
	l.freeSlot(ref.slot)
	l.stats.Removed++
	l.note("drop", fn, 1)
}

// AppendSynthetic appends a compaction-produced record that replays as a
// direct state-install call on the component (e.g. __vfs_set_offset).
// The record inherits the log's current maximum sequence number so that
// replay ordering places it after everything it summarises and before
// everything that follows.
func (l *Log) AppendSynthetic(fn string, args Args, session SessionID) error {
	addr, n, err := l.d.storeArgs(args)
	if err != nil {
		return err
	}
	var seq uint64
	for _, s := range l.order {
		seq = max(seq, l.recs[s].Seq)
	}
	l.add(Record{
		Seq: seq, Fn: fn, args: addr, argsN: n, Session: session,
		Class: ClassDurable, Synthetic: true,
	})
	return nil
}

// RecordKey holds the fields of a record that compactors select on.
type RecordKey struct {
	Fn        string
	Session   SessionID
	Class     Class
	Synthetic bool
}

func keyOf(e *Record) RecordKey {
	return RecordKey{Fn: e.Fn, Session: e.Session, Class: e.Class, Synthetic: e.Synthetic}
}

// RemoveWhere removes completed records matching the predicate, counting
// them as compaction, and returns how many were removed.
func (l *Log) RemoveWhere(pred func(RecordKey) bool) int {
	before := l.stats.Removed
	l.removeWhere(func(e *Record) bool { return !e.open && pred(keyOf(e)) })
	n := int(l.stats.Removed - before)
	l.stats.Compacted += uint64(n)
	l.note("compact", "", n)
	return n
}

func (l *Log) removeWhere(pred func(*Record) bool) {
	kept := l.order[:0]
	for _, s := range l.order {
		if pred(&l.recs[s]) {
			l.freeSlot(s)
			l.stats.Removed++
			continue
		}
		kept = append(kept, s)
	}
	l.order = kept
}

// freeSlot releases the record's domain memory and returns its slot,
// keeping the Outbound array for the next occupant.
func (l *Log) freeSlot(s uint32) {
	e := &l.recs[s]
	l.d.release(e.args, e.argsN)
	l.d.release(e.rets, e.retsN)
	for _, o := range e.Outbound {
		l.d.release(o.rets, o.retsN)
	}
	clear(e.Outbound)
	*e = Record{gen: e.gen + 1, Outbound: e.Outbound[:0]}
	l.free = append(l.free, s)
}

// Reset discards every record and closed-session mark. Used by tests and
// by full-reboot paths where the log is moot.
func (l *Log) Reset() {
	l.removeWhere(func(*Record) bool { return true })
	l.closed = make(map[SessionID]bool)
	l.epoch = 0
	l.epochSeq = 0
}

// RecordView is a read-only view of a log record handed to replayers and
// compactors. Args and Rets are the logged encodings, copied out of the
// domain into buffers of the view's own: the arguments as the replayed
// handler receives them, the results as the original call returned them.
type RecordView struct {
	Seq       uint64
	Fn        string
	Session   SessionID
	Class     Class
	Err       string
	Synthetic bool
	Args      Encoded
	Rets      Encoded
	Outbound  []OutboundView
}

// OutboundView is a logged outbound result.
type OutboundView struct {
	Target string
	Fn     string
	Err    string
	Rets   Encoded
}

func viewOf(e *Record) RecordView {
	return RecordView{
		Seq: e.Seq, Fn: e.Fn, Session: e.Session, Class: e.Class,
		Err: e.Err, Synthetic: e.Synthetic,
	}
}

// Entries decodes and returns every completed record in append order.
// The replayer walks this during encapsulated restoration.
func (l *Log) Entries() ([]RecordView, error) {
	return l.views(make([]RecordView, 0, len(l.order)), func(*Record) bool { return true })
}

// SessionEntries decodes and returns the completed records of one
// session in append order — the opener, surviving durables and the open
// transient tail that the session-aware shrinker preserves. This is
// exactly the slice a session microreboot replays against the running
// component after evicting the session's live state.
func (l *Log) SessionEntries(session SessionID) ([]RecordView, error) {
	return l.views(nil, func(e *Record) bool { return e.Session == session })
}

// views appends the views of the completed records keep selects to out.
func (l *Log) views(out []RecordView, keep func(*Record) bool) ([]RecordView, error) {
	for _, s := range l.order {
		e := &l.recs[s]
		if e.open || !keep(e) {
			continue
		}
		v, err := l.view(e)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// view reads one record out of the domain, each encoding into a buffer
// of the view's own.
func (l *Log) view(e *Record) (RecordView, error) {
	v := viewOf(e)
	var err error
	if v.Args, err = l.d.readValid(e.args, e.argsN); err != nil {
		return v, fmt.Errorf("msg: log %q seq %d: %w", l.d.owner, e.Seq, err)
	}
	if v.Rets, err = l.d.readValid(e.rets, e.retsN); err != nil {
		return v, fmt.Errorf("msg: log %q seq %d rets: %w", l.d.owner, e.Seq, err)
	}
	for _, o := range e.Outbound {
		rets, err := l.d.readValid(o.rets, o.retsN)
		if err != nil {
			return v, fmt.Errorf("msg: log %q seq %d outbound: %w", l.d.owner, e.Seq, err)
		}
		v.Outbound = append(v.Outbound, OutboundView{
			Target: o.Target, Fn: o.Fn, Err: o.Err, Rets: rets,
		})
	}
	return v, nil
}

// HasLiveOpener reports whether the session has a completed, successful
// opener record in the log and has not been closed since. Only such
// sessions are reconstructible by replaying their log slice; everything
// else must escalate to a whole-component reboot.
func (l *Log) HasLiveOpener(session SessionID) bool {
	if l.closed[session] {
		return false
	}
	for _, s := range l.order {
		if e := &l.recs[s]; !e.open && e.Session == session && e.Class == ClassOpener && e.Err == "" {
			return true
		}
	}
	return false
}

// Epoch returns the number of truncations applied so far.
func (l *Log) Epoch() uint64 { return l.epoch }

// EpochSeq returns the highest sequence number folded into the current
// checkpoint epoch (zero before the first truncation). Replay after a
// restore covers only records above it — the log tail.
func (l *Log) EpochSeq() uint64 { return l.epochSeq }

// MaxCompletedSeq returns the highest sequence number among completed
// records, or zero when none exist. The checkpoint manager truncates up
// to this point after capturing an image at a quiescent boundary.
func (l *Log) MaxCompletedSeq() uint64 {
	var seq uint64
	for _, s := range l.order {
		if e := &l.recs[s]; !e.open {
			seq = max(seq, e.Seq)
		}
	}
	return seq
}

// TruncateBefore atomically drops every completed record with sequence
// number at or below seq, advancing the log's epoch. It is only safe to
// call when a checkpoint image capturing the component's state *after*
// all those calls exists: the image replaces replay of the prefix.
//
// ClassDurable session semantics are preserved by folding: durable
// entries in the prefix are counted in LogStats.Folded rather than
// Truncated, because their effects (mounts, binds, listens) live on in
// the checkpoint image — replaying them against a quiescent image would
// double-apply them (a replayed bind would fail EADDRINUSE against the
// very socket the image restored). In-flight (open) records always carry
// sequence numbers above every completed record in a FIFO-executed group
// log, so truncation never touches them. Closed-session marks whose
// sessions keep at least one record survive truncation (a later opener
// reusing the id still needs the mark to drop the remainder); marks for
// sessions with no surviving records are purged — the mark would remove
// nothing, and session ids are monotonically increasing resource
// numbers, so unpurged marks would accumulate without bound under
// sustained open/close load.
func (l *Log) TruncateBefore(seq uint64) (dropped, folded int) {
	before := l.stats.Removed
	l.removeWhere(func(e *Record) bool {
		if e.open || e.Seq > seq {
			return false
		}
		if e.Class == ClassDurable {
			folded++
		}
		return true
	})
	if len(l.closed) > 0 {
		surviving := make(map[SessionID]bool, len(l.order))
		for _, s := range l.order {
			if sess := l.recs[s].Session; sess != "" {
				surviving[sess] = true
			}
		}
		for s := range l.closed {
			if !surviving[s] {
				delete(l.closed, s)
			}
		}
	}
	dropped = int(l.stats.Removed-before) - folded
	l.stats.Truncated += uint64(dropped)
	l.stats.Folded += uint64(folded)
	l.epoch++
	if seq > l.epochSeq {
		l.epochSeq = seq
	}
	l.note("truncate", "", dropped+folded)
	return dropped, folded
}

// DropFrom removes every completed record with sequence number at or
// above seq, returning how many it removed. Taint-aware rollback uses it
// to discard the suspect log tail: calls at or past the taint watermark
// must not be replayed onto the pre-taint image. Open records are
// untouched (they belong to a call still in flight, necessarily with a
// fresh seq). Sequence numbers are globally monotonic and never reused,
// so a dropped seq cannot reappear.
func (l *Log) DropFrom(seq uint64) int {
	before := l.stats.Removed
	l.removeWhere(func(e *Record) bool { return !e.open && e.Seq >= seq })
	n := int(l.stats.Removed - before)
	l.note("drop", "", n)
	return n
}

// RewindEpoch lowers the epoch seq to seq (a no-op when already at or
// below it). Taint-aware rollback calls it after restoring an image
// older than the latest truncation: the epoch seq must track what the
// *installed* image covers, or the next truncation would label the
// fresh capture with coverage it does not have.
func (l *Log) RewindEpoch(seq uint64) {
	if seq < l.epochSeq {
		l.epochSeq = seq
	}
}

// MarkReplayed counts n replayed records in the statistics.
func (l *Log) MarkReplayed(n int) {
	l.stats.Replayed += uint64(n)
	l.note("replay", "", n)
}
