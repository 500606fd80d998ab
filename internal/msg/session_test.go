package msg

import (
	"fmt"
	"testing"
)

// TestSessionEntriesExtractsOneSession: SessionEntries returns exactly
// the completed records of the requested session, in append order, with
// args/rets/outbound decoded — the slice a session microreboot replays.
func TestSessionEntriesExtractsOneSession(t *testing.T) {
	l := newTestLog(t)
	r, err := l.BeginInbound(1, "open", Args{"/a", 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendOutboundTo(r, "9pfs", "uk_9pfs_open", mustEncode(Args{7}), ""); err != nil {
		t.Fatal(err)
	}
	if err := l.EndInbound(r, "fd:3", ClassOpener, Args{3}, ""); err != nil {
		t.Fatal(err)
	}
	logCall(t, l, 2, "open", Args{"/b", 0}, "fd:4", ClassOpener)
	logCall(t, l, 3, "write", Args{3, []byte("x")}, "fd:3", ClassTransient)
	logCall(t, l, 4, "write", Args{4, []byte("y")}, "fd:4", ClassTransient)
	logCall(t, l, 5, "fcntl", Args{3, 1}, "fd:3", ClassDurable)
	if _, err := l.BeginInbound(6, "read", Args{3, 8}); err != nil {
		t.Fatal(err) // in-flight: must be excluded
	}

	views, err := l.SessionEntries("fd:3")
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 3 {
		t.Fatalf("SessionEntries(fd:3) = %d records, want 3", len(views))
	}
	if views[0].Fn != "open" || views[1].Fn != "write" || views[2].Fn != "fcntl" {
		t.Fatalf("fns = %v", []string{views[0].Fn, views[1].Fn, views[2].Fn})
	}
	if views[0].Class != ClassOpener {
		t.Fatalf("first record class = %v, want opener", views[0].Class)
	}
	if len(views[0].Outbound) != 1 || views[0].Outbound[0].Target != "9pfs" {
		t.Fatalf("opener outbound = %+v", views[0].Outbound)
	}
	if fd, err := views[0].Rets.Int(0); err != nil || fd != 3 {
		t.Fatalf("opener rets = %d, %v", fd, err)
	}
	other, err := l.SessionEntries("fd:9")
	if err != nil || len(other) != 0 {
		t.Fatalf("SessionEntries(fd:9) = %v, %v, want empty", other, err)
	}
}

// TestHasLiveOpener: only sessions with a completed, successful opener
// that have not been closed are reconstructible.
func TestHasLiveOpener(t *testing.T) {
	l := newTestLog(t)
	if l.HasLiveOpener("fd:3") {
		t.Fatal("empty log reports a live opener")
	}
	logCall(t, l, 1, "open", Args{"/a"}, "fd:3", ClassOpener)
	if !l.HasLiveOpener("fd:3") {
		t.Fatal("open session has no live opener")
	}
	logCall(t, l, 2, "close", Args{3}, "fd:3", ClassCanceler)
	if l.HasLiveOpener("fd:3") {
		t.Fatal("closed session still reports a live opener")
	}
	// A failed opener does not make the session reconstructible.
	r, err := l.BeginInbound(3, "open", Args{"/missing"})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.EndInbound(r, "fd:4", ClassOpener, nil, "ENOENT"); err != nil {
		t.Fatal(err)
	}
	if l.HasLiveOpener("fd:4") {
		t.Fatal("failed opener reported live")
	}
}

// TestClosedMarksBoundedAcrossTruncation is the satellite regression for
// msg.Log.closed growth: session ids are monotonically increasing
// resource numbers, so closed marks are never cleared by reuse; without
// purging at truncation the map grows one entry per closed session
// forever. Truncation must purge marks whose sessions keep no records.
func TestClosedMarksBoundedAcrossTruncation(t *testing.T) {
	l := newTestLog(t)
	seq := uint64(0)
	next := func() uint64 { seq++; return seq }
	for cycle := 0; cycle < 200; cycle++ {
		sess := SessionID(fmt.Sprintf("sock:%d", cycle))
		logCall(t, l, next(), "socket", Args{}, sess, ClassOpener)
		logCall(t, l, next(), "send", Args{cycle, []byte("x")}, sess, ClassTransient)
		logCall(t, l, next(), "sock_net_close", Args{cycle}, sess, ClassCanceler)
		if cycle%10 == 9 {
			l.TruncateBefore(l.MaxCompletedSeq())
			if got := l.ClosedSessions(); got != 0 {
				t.Fatalf("cycle %d: %d closed marks survive a full truncation, want 0", cycle, got)
			}
		}
	}
	if got := l.ClosedSessions(); got > 10 {
		t.Fatalf("closed marks = %d after 200 cycles with periodic truncation, want <= 10", got)
	}

	// A mark whose session still has records above the cut must survive:
	// the later opener reuse still needs it to drop the remainder.
	l.Reset()
	logCall(t, l, 1, "open", Args{"/a"}, "fd:7", ClassOpener)
	logCall(t, l, 2, "close", Args{7}, "fd:7", ClassCanceler)
	l.TruncateBefore(1) // drops the opener, keeps the canceler record
	if l.ClosedSessions() != 1 {
		t.Fatalf("mark purged while session records survive (marks=%d)", l.ClosedSessions())
	}
	removedBefore := l.Stats().Removed
	logCall(t, l, 3, "open", Args{"/b"}, "fd:7", ClassOpener)
	if l.Stats().Removed != removedBefore+1 {
		t.Fatalf("opener reuse removed %d records, want 1 (the stale canceler)",
			l.Stats().Removed-removedBefore)
	}
}

// TestRecordTableBoundedAcrossTruncation: the record table grows only
// when no slot is free, so across 10,000 open/write/close cycles with
// periodic truncation its slot count never exceeds the most records the
// log held at once, open ones included. A removal path that forgot to
// return its slot would grow the table by one per leak, without limit.
func TestRecordTableBoundedAcrossTruncation(t *testing.T) {
	l := newTestLog(t)
	seq, peak := uint64(0), 0
	call := func(fn string, args Args, sess SessionID, class Class) {
		t.Helper()
		seq++
		r, err := l.BeginInbound(seq, fn, args)
		if err != nil {
			t.Fatal(err)
		}
		peak = max(peak, l.Len())
		if err := l.AppendOutboundTo(r, "9pfs", "uk_9pfs_"+fn, mustEncode(Args{int(seq)}), ""); err != nil {
			t.Fatal(err)
		}
		if err := l.EndInbound(r, sess, class, nil, ""); err != nil {
			t.Fatal(err)
		}
		if len(l.recs) > peak {
			t.Fatalf("seq %d: %d slots for a peak of %d records", seq, len(l.recs), peak)
		}
	}
	for cycle := 0; cycle < 10000; cycle++ {
		sess := SessionID(fmt.Sprintf("fd:%d", cycle%5))
		call("open", Args{"/a"}, sess, ClassOpener)
		call("write", Args{cycle, []byte("x")}, sess, ClassTransient)
		if cycle%3 != 0 { // every third session stays open across the cut
			call("close", Args{cycle}, sess, ClassCanceler)
		}
		if cycle%10 == 9 {
			l.TruncateBefore(l.MaxCompletedSeq())
		}
	}
	if peak > 20 || len(l.recs) != peak || len(l.free)+l.Len() != len(l.recs) {
		t.Fatalf("%d slots, %d free, %d records, peak %d", len(l.recs), len(l.free), l.Len(), peak)
	}
}

// TestNamespaceIDsAllocateNothing: minting the session id of any
// resource below 256 and parsing it back allocate nothing, in each of
// the three namespaces the components name sessions by. A logged vfs
// read or write names its session on every call, so one allocation here
// is one more per op on the file and network paths.
func TestNamespaceIDsAllocateNothing(t *testing.T) {
	for _, name := range []string{"fd", "sock", "fid"} {
		ns := NewNamespace(name)
		for _, n := range []int{0, 3, 7, 255} {
			id := ns.ID(n)
			if want := SessionID(fmt.Sprintf("%s:%d", name, n)); id != want {
				t.Fatalf("%s: ID(%d) = %q, want %q", name, n, id, want)
			}
			if got, ok := ns.Parse(id); !ok || got != n {
				t.Fatalf("%s: Parse(%q) = %d, %v", name, id, got, ok)
			}
		}
		n := 0
		if a := testing.AllocsPerRun(1000, func() { _ = ns.ID(n % 256); n++ }); a != 0 {
			t.Errorf("%s: minting an id below 256 allocates %v times", name, a)
		}
		id := ns.ID(42)
		if a := testing.AllocsPerRun(1000, func() { _, _ = ns.Parse(id) }); a != 0 {
			t.Errorf("%s: parsing %q allocates %v times", name, id, a)
		}
	}
}

// TestNamespaceParseRejectsForeignIDs: an id of another namespace, or
// one without a number, does not parse.
func TestNamespaceParseRejectsForeignIDs(t *testing.T) {
	fds := NewNamespace("fd")
	for _, id := range []SessionID{"", "fd:", "fd:x", "sock:3", "fd3"} {
		if n, ok := fds.Parse(id); ok {
			t.Errorf("Parse(%q) = %d, want no number", id, n)
		}
	}
}
