package msg

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"vampos/internal/mem"
)

// TestLogTruncateProperties drives a randomly generated call history
// through the log and checks the contract TruncateBefore gives the
// checkpoint manager, for every history and every cut point:
//
//   - in-flight (open) records are never touched by truncation;
//   - Epoch advances by exactly one per truncation and EpochSeq is
//     monotone (a smaller, later cut cannot move it backwards);
//   - image + tail ≡ full replay: the records surviving a cut at seq
//     are exactly the completed records above seq, byte-identical —
//     so replaying them on top of a checkpoint image that captured
//     the prefix reproduces what replaying the full log would have.
func TestLogTruncateProperties(t *testing.T) {
	sessions := []SessionID{"fd:3", "fd:4", "fd:5", "sock:1"}
	classes := []Class{ClassDurable, ClassOpener, ClassTransient, ClassCanceler}
	f := func(ops []uint16, cutFrac, openTail uint8) bool {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		m := mem.New(1024 * mem.PageSize)
		d, err := NewDomain("vfs", m, 7, 256)
		if err != nil {
			t.Fatal(err)
		}
		l := d.Log()
		seq := uint64(0)
		for _, op := range ops {
			seq++
			class := classes[int(op)%len(classes)]
			session := sessions[int(op>>2)%len(sessions)]
			r, err := l.BeginInbound(seq, fmt.Sprintf("fn%d", op%7), Args{int(op), "payload"})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.EndInbound(r, session, class, Args{int64(seq)}, ""); err != nil {
				t.Fatal(err)
			}
		}
		// Leave a few records in flight, carrying the highest sequence
		// numbers, as a FIFO-executed group log guarantees.
		nOpen := int(openTail) % 4
		for i := 0; i < nOpen; i++ {
			seq++
			if _, err := l.BeginInbound(seq, "inflight", Args{i}); err != nil {
				t.Fatal(err)
			}
		}
		before, err := l.Entries()
		if err != nil {
			t.Fatal(err)
		}
		epoch0, epochSeq0 := l.Epoch(), l.EpochSeq()
		cut := seq * uint64(cutFrac) / 255

		dropped, folded := l.TruncateBefore(cut)

		// Open records survive any cut.
		open := 0
		for _, s := range l.order {
			if l.recs[s].open {
				open++
			}
		}
		if open != nOpen {
			t.Fatalf("cut %d: %d open records survive, want %d", cut, open, nOpen)
		}
		// Epoch/EpochSeq advance monotonically.
		if l.Epoch() != epoch0+1 {
			t.Fatalf("epoch = %d, want %d", l.Epoch(), epoch0+1)
		}
		want := epochSeq0
		if cut > want {
			want = cut
		}
		if l.EpochSeq() != want {
			t.Fatalf("epochSeq = %d, want %d", l.EpochSeq(), want)
		}
		// The surviving tail is exactly the completed records above the
		// cut, unchanged.
		var tail []RecordView
		for _, v := range before {
			if v.Seq > cut {
				tail = append(tail, v)
			}
		}
		after, err := l.Entries()
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != len(tail) {
			t.Fatalf("cut %d: %d records survive, want %d", cut, len(after), len(tail))
		}
		for i := range tail {
			a, b := after[i], tail[i]
			if a.Seq != b.Seq || a.Fn != b.Fn || a.Session != b.Session ||
				a.Class != b.Class || a.Err != b.Err {
				t.Fatalf("cut %d: record %d = %+v, want %+v", cut, i, a, b)
			}
			for j := range b.Args {
				if !fuzzEqual(a.Args[j], b.Args[j]) {
					t.Fatalf("cut %d: record %d arg %d changed", cut, i, j)
				}
			}
			for j := range b.Rets {
				if !fuzzEqual(a.Rets[j], b.Rets[j]) {
					t.Fatalf("cut %d: record %d ret %d changed", cut, i, j)
				}
			}
		}
		if dropped+folded != len(before)-len(after) {
			t.Fatalf("cut %d: dropped %d + folded %d != %d removed",
				cut, dropped, folded, len(before)-len(after))
		}
		// A second, lower cut is a no-op on the entries and cannot move
		// EpochSeq backwards.
		l.TruncateBefore(cut / 2)
		if l.EpochSeq() != want || l.Epoch() != epoch0+2 {
			t.Fatalf("lower re-cut moved epochSeq to %d (epoch %d)", l.EpochSeq(), l.Epoch())
		}
		if again, _ := l.Entries(); len(again) != len(after) {
			t.Fatalf("lower re-cut removed %d records", len(after)-len(again))
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// refLog is the log as it was before the record table: one allocated
// Record per call, retained through a []*Record in append order, a
// removal dropping the pointer. The table log must be indistinguishable
// from it through every view, count and byte of domain memory. Its only
// departure is the stale-handle contract: a write through a handle whose
// record has left the log is refused (it used to land in the detached
// struct).
type refLog struct {
	d       *Domain
	entries []*Record
	closed  map[SessionID]bool
	stats   LogStats
	events  []string
}

func (m *refLog) note(op, fn string, n int) {
	if n > 0 {
		m.events = append(m.events, fmt.Sprintf("%s %s %d", op, fn, n))
	}
}

func (m *refLog) live(r *Record) bool {
	for _, e := range m.entries {
		if e == r {
			return true
		}
	}
	return false
}

func (m *refLog) begin(seq uint64, fn string, args Args) (*Record, error) {
	addr, n, err := m.d.storeArgs(args)
	if err != nil {
		return nil, err
	}
	r := &Record{Seq: seq, Fn: fn, args: addr, argsN: n, open: true, Class: ClassDurable}
	m.entries = append(m.entries, r)
	m.stats.Appended++
	m.note("append", fn, 1)
	return r, nil
}

func (m *refLog) outbound(r *Record, target, fn string, rets Args, callErr string) error {
	if !m.live(r) {
		return ErrStaleRecord
	}
	addr, n, err := m.d.storeArgs(rets)
	if err != nil {
		return err
	}
	r.Outbound = append(r.Outbound, Outbound{Target: target, Fn: fn, Err: callErr, rets: addr, retsN: n})
	return nil
}

func (m *refLog) end(r *Record, session SessionID, class Class, rets Args, callErr string) error {
	if !m.live(r) {
		return ErrStaleRecord
	}
	addr, n, err := m.d.storeArgs(rets)
	if err != nil {
		return err
	}
	r.rets, r.retsN = addr, n
	r.open = false
	r.Session, r.Class, r.Err = session, class, callErr
	if session == "" {
		return nil
	}
	before := m.stats.Removed
	switch class {
	case ClassCanceler:
		m.removeWhere(func(e *Record) bool { return e != r && e.Session == session && e.Class == ClassTransient })
		m.closed[session] = true
	case ClassOpener:
		if m.closed[session] {
			m.removeWhere(func(e *Record) bool { return e != r && e.Session == session })
			delete(m.closed, session)
		}
	}
	m.note("shrink", string(session), int(m.stats.Removed-before))
	return nil
}

func (m *refLog) drop(r *Record) {
	before := m.stats.Removed
	m.removeWhere(func(e *Record) bool { return e == r })
	m.note("drop", r.Fn, int(m.stats.Removed-before))
}

func (m *refLog) synthetic(fn string, args Args, session SessionID) error {
	addr, n, err := m.d.storeArgs(args)
	if err != nil {
		return err
	}
	var seq uint64
	for _, e := range m.entries {
		seq = max(seq, e.Seq)
	}
	m.entries = append(m.entries, &Record{
		Seq: seq, Fn: fn, args: addr, argsN: n, Session: session,
		Class: ClassDurable, Synthetic: true,
	})
	m.stats.Appended++
	m.note("append", fn, 1)
	return nil
}

// compact removes the completed records pred selects, as RemoveWhere
// does.
func (m *refLog) compact(pred func(*Record) bool) int {
	before := m.stats.Removed
	m.removeWhere(func(e *Record) bool { return !e.open && pred(e) })
	n := int(m.stats.Removed - before)
	m.stats.Compacted += uint64(n)
	m.note("compact", "", n)
	return n
}

func (m *refLog) truncate(seq uint64) (dropped, folded int) {
	before := m.stats.Removed
	m.removeWhere(func(e *Record) bool {
		if e.open || e.Seq > seq {
			return false
		}
		if e.Class == ClassDurable {
			folded++
		}
		return true
	})
	surviving := make(map[SessionID]bool)
	for _, e := range m.entries {
		surviving[e.Session] = true
	}
	for s := range m.closed {
		if !surviving[s] {
			delete(m.closed, s)
		}
	}
	dropped = int(m.stats.Removed-before) - folded
	m.stats.Truncated += uint64(dropped)
	m.stats.Folded += uint64(folded)
	m.note("truncate", "", dropped+folded)
	return dropped, folded
}

func (m *refLog) dropFrom(seq uint64) int {
	before := m.stats.Removed
	m.removeWhere(func(e *Record) bool { return !e.open && e.Seq >= seq })
	n := int(m.stats.Removed - before)
	m.note("drop", "", n)
	return n
}

func (m *refLog) reset() {
	m.removeWhere(func(*Record) bool { return true })
	m.closed = make(map[SessionID]bool)
}

func (m *refLog) removeWhere(pred func(*Record) bool) {
	kept := m.entries[:0]
	for _, e := range m.entries {
		if pred(e) {
			m.d.release(e.args, e.argsN)
			m.d.release(e.rets, e.retsN)
			for _, o := range e.Outbound {
				m.d.release(o.rets, o.retsN)
			}
			m.stats.Removed++
			continue
		}
		kept = append(kept, e)
	}
	m.entries = kept
}

func (m *refLog) views() ([]RecordView, error) {
	var out []RecordView
	for _, e := range m.entries {
		if e.open {
			continue
		}
		v, err := m.d.Log().view(e)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// logOp is one step of a random log history; its fields pick the
// operation and its operands.
type logOp struct{ Kind, A, B uint8 }

// decodeLogOps reads a history three bytes per step.
func decodeLogOps(p []byte) []logOp {
	ops := make([]logOp, 0, len(p)/3)
	for ; len(p) >= 3; p = p[3:] {
		ops = append(ops, logOp{p[0], p[1], p[2]})
	}
	return ops
}

// handle is one record as the caller holds it, in both logs.
type handle struct {
	ref Ref
	rec *Record
}

// runLogOps drives ops through a table log and a refLog side by side and
// fails t at the first step after which they differ.
func runLogOps(t testing.TB, ops []logOp) {
	t.Helper()
	newDomain := func() *Domain {
		d, err := NewDomain("vfs", mem.New(128*mem.PageSize), 7, 32)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d := newDomain()
	l := d.Log()
	var events []string
	l.Observer = func(op, fn string, n int) { events = append(events, fmt.Sprintf("%s %s %d", op, fn, n)) }
	m := &refLog{d: newDomain(), closed: make(map[SessionID]bool)}

	fns := []string{"open", "write", "read", "close"}
	sessions := []SessionID{"", "fd:3", "fd:4", "sock:1"}
	classes := []Class{ClassDurable, ClassOpener, ClassTransient, ClassCanceler}
	var hs []handle
	seq := uint64(0)
	pick := func(a uint8) (handle, bool) {
		if len(hs) == 0 {
			return handle{}, false
		}
		return hs[int(a)%len(hs)], true
	}
	sameErr := func(step int, what string, got, want error) {
		if (got == nil) != (want == nil) || got != nil && errors.Is(want, ErrStaleRecord) != errors.Is(got, ErrStaleRecord) {
			t.Fatalf("step %d %s: error %v, reference %v", step, what, got, want)
		}
	}
	for i, op := range ops {
		switch op.Kind % 12 {
		case 0, 1:
			seq++
			fn, args := fns[op.A%4], Args{int(op.A), "payload"}
			ref, err := l.BeginInbound(seq, fn, args)
			rec, werr := m.begin(seq, fn, args)
			sameErr(i, "begin", err, werr)
			if err == nil {
				hs = append(hs, handle{ref, rec})
			}
		case 2:
			if h, ok := pick(op.A); ok {
				rets := Args{int(op.B), []byte("outbound")}
				sameErr(i, "outbound", l.AppendOutboundTo(h.ref, "9pfs", fns[op.B%4], mustEncode(rets), ""),
					m.outbound(h.rec, "9pfs", fns[op.B%4], rets, ""))
			}
		case 3, 4:
			if h, ok := pick(op.A); ok {
				sess, class, callErr := sessions[op.B%4], classes[op.B/4%4], ""
				if op.B&0x40 != 0 {
					callErr = "EIO"
				}
				rets := Args{int64(op.B)}
				sameErr(i, "end", l.EndInbound(h.ref, sess, class, rets, callErr),
					m.end(h.rec, sess, class, rets, callErr))
			}
		case 5:
			if h, ok := pick(op.A); ok {
				l.DropRecord(h.ref)
				m.drop(h.rec)
			}
		case 6:
			cut := seq * uint64(op.A) / 255
			gd, gf := l.TruncateBefore(cut)
			wd, wf := m.truncate(cut)
			if gd != wd || gf != wf {
				t.Fatalf("step %d: TruncateBefore(%d) = %d, %d; reference %d, %d", i, cut, gd, gf, wd, wf)
			}
		case 7:
			cut := seq * uint64(op.A) / 255
			if got, want := l.DropFrom(cut), m.dropFrom(cut); got != want {
				t.Fatalf("step %d: DropFrom(%d) = %d, reference %d", i, cut, got, want)
			}
		case 8:
			sess := sessions[op.A%4]
			got := l.RemoveWhere(func(v RecordKey) bool { return v.Session == sess })
			want := m.compact(func(e *Record) bool { return e.Session == sess })
			if got != want {
				t.Fatalf("step %d: RemoveWhere(session %s) = %d, reference %d", i, sess, got, want)
			}
		case 9:
			fn := fns[op.A%4]
			got := l.RemoveWhere(func(v RecordKey) bool { return v.Fn == fn })
			want := m.compact(func(e *Record) bool { return e.Fn == fn })
			if got != want {
				t.Fatalf("step %d: RemoveWhere(fn %s) = %d, reference %d", i, fn, got, want)
			}
		case 10:
			sess, args := sessions[op.A%4], Args{int(op.B)}
			sameErr(i, "synthetic", l.AppendSynthetic("__set_offset", args, sess),
				m.synthetic("__set_offset", args, sess))
		case 11:
			if op.A%8 == 0 {
				l.Reset()
				m.reset()
			}
		}
		checkAgainstRef(t, i, l, m, hs, events)
	}
}

// checkAgainstRef compares everything the log shows: its views, counters,
// domain bytes and observer events, and every handle — live in the table
// exactly when its record is live in the reference, and then equal to it.
func checkAgainstRef(t testing.TB, step int, l *Log, m *refLog, hs []handle, events []string) {
	t.Helper()
	got, gerr := l.Entries()
	want, werr := m.views()
	if gerr != nil || werr != nil {
		t.Fatalf("step %d: Entries: %v, reference %v", step, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) && (len(got) > 0 || len(want) > 0) {
		t.Fatalf("step %d: Entries\n%+v\nreference\n%+v", step, got, want)
	}
	if l.Stats() != m.stats {
		t.Fatalf("step %d: Stats %+v, reference %+v", step, l.Stats(), m.stats)
	}
	if l.Len() != len(m.entries) || l.ClosedSessions() != len(m.closed) {
		t.Fatalf("step %d: Len %d, %d closed; reference %d, %d", step, l.Len(), l.ClosedSessions(), len(m.entries), len(m.closed))
	}
	if g, w := l.d.BytesInUse(), m.d.BytesInUse(); g != w {
		t.Fatalf("step %d: BytesInUse %d, reference %d", step, g, w)
	}
	if !slices.Equal(events, m.events) {
		t.Fatalf("step %d: observer saw\n%q\nreference\n%q", step, events, m.events)
	}
	for i, h := range hs {
		r, _ := l.live(h.ref)
		live := m.live(h.rec)
		if (r != nil) != live {
			t.Fatalf("step %d: handle %d live in the table %v, in the reference %v", step, i, r != nil, live)
		}
		if r == nil {
			continue
		}
		a, b := *r, *h.rec
		if !slices.Equal(a.Outbound, b.Outbound) {
			t.Fatalf("step %d: handle %d outbound %+v, reference %+v", step, i, a.Outbound, b.Outbound)
		}
		a.Outbound, b.Outbound, a.gen = nil, nil, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("step %d: handle %d record %+v, reference %+v", step, i, a, b)
		}
	}
}

// TestLogTableMatchesReference runs random histories of every log
// mutation — begin, outbound, end in all four classes, drop, truncation,
// taint drop, session and predicate compaction, synthetic records and
// reset — against the table log and refLog, comparing after every step.
// Handles are picked among every record ever logged, so many writes go
// through stale ones and must be refused without touching a live record.
func TestLogTableMatchesReference(t *testing.T) {
	f := func(ops []logOp) bool {
		runLogOps(t, ops)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
