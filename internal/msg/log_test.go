package msg

import (
	"errors"
	"testing"
)

// mustEncode encodes a list the codec accepts.
func mustEncode(args Args) Encoded {
	e, err := EncodeArgs(args)
	if err != nil {
		panic(err)
	}
	return e
}

func newTestLog(t *testing.T) *Log {
	t.Helper()
	return newTestDomain(t).Log()
}

// logCall drives a full Begin/End cycle, as the interposition layer does.
func logCall(t *testing.T, l *Log, seq uint64, fn string, args Args, sess SessionID, class Class) Ref {
	t.Helper()
	r, err := l.BeginInbound(seq, fn, args)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.EndInbound(r, sess, class, nil, ""); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestLogAppendAndEntries(t *testing.T) {
	l := newTestLog(t)
	logCall(t, l, 1, "mount", Args{"/", "9pfs"}, "", ClassDurable)
	logCall(t, l, 2, "open", Args{"/a", 0}, "fd:3", ClassOpener)
	entries, err := l.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("Entries = %d records, want 2", len(entries))
	}
	if entries[0].Fn != "mount" || entries[1].Fn != "open" {
		t.Fatalf("entries = %+v", entries)
	}
	path, err := entries[1].Args.Str(0)
	if err != nil || path != "/a" {
		t.Fatalf("open arg = %q, %v", path, err)
	}
}

func TestOutboundAttachesToInFlight(t *testing.T) {
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
	entries, err := l.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries[0].Outbound) != 1 {
		t.Fatalf("outbound count = %d, want 1", len(entries[0].Outbound))
	}
	ob := entries[0].Outbound[0]
	if ob.Target != "9pfs" || ob.Fn != "uk_9pfs_open" {
		t.Fatalf("outbound = %+v", ob)
	}
	if fid, err := ob.Rets.Int(0); err != nil || fid != 7 {
		t.Fatalf("outbound ret = %d, %v", fid, err)
	}
}

func TestOutboundToNilRecordIsNoOp(t *testing.T) {
	l := newTestLog(t)
	if err := l.AppendOutboundTo(Ref{}, "x", "f", mustEncode(Args{1}), ""); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 0 {
		t.Fatal("no-op outbound created a record")
	}
}

func TestCancelerRemovesTransients(t *testing.T) {
	l := newTestLog(t)
	logCall(t, l, 1, "open", Args{"/a"}, "fd:3", ClassOpener)
	logCall(t, l, 2, "write", Args{3, []byte("x")}, "fd:3", ClassTransient)
	logCall(t, l, 3, "write", Args{3, []byte("y")}, "fd:3", ClassTransient)
	logCall(t, l, 4, "read", Args{3, 10}, "fd:3", ClassTransient)
	logCall(t, l, 5, "close", Args{3}, "fd:3", ClassCanceler)
	// Paper Table III: close() leaves the open/close pair, drops reads
	// and writes.
	if l.Len() != 2 {
		t.Fatalf("Len = %d after close, want 2 (open+close)", l.Len())
	}
	entries, _ := l.Entries()
	if entries[0].Fn != "open" || entries[1].Fn != "close" {
		t.Fatalf("kept %v", []string{entries[0].Fn, entries[1].Fn})
	}
}

func TestOpenerReuseDropsClosedSession(t *testing.T) {
	l := newTestLog(t)
	logCall(t, l, 1, "open", Args{"/a"}, "fd:3", ClassOpener)
	logCall(t, l, 2, "close", Args{3}, "fd:3", ClassCanceler)
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	// Reusing fd 3 discards the stale pair: net effect -1 entry, the
	// paper's Table III open() row.
	logCall(t, l, 3, "open", Args{"/b"}, "fd:3", ClassOpener)
	if l.Len() != 1 {
		t.Fatalf("Len = %d after reuse, want 1", l.Len())
	}
	entries, _ := l.Entries()
	if p, _ := entries[0].Args.Str(0); p != "/b" {
		t.Fatalf("kept open of %q, want /b", p)
	}
}

func TestTransientsOfLiveSessionAreKept(t *testing.T) {
	l := newTestLog(t)
	logCall(t, l, 1, "open", Args{"/a"}, "fd:3", ClassOpener)
	logCall(t, l, 2, "write", Args{3, []byte("x")}, "fd:3", ClassTransient)
	// A canceler on another session must not touch fd:3.
	logCall(t, l, 3, "open", Args{"/b"}, "fd:4", ClassOpener)
	logCall(t, l, 4, "close", Args{4}, "fd:4", ClassCanceler)
	if l.Len() != 4 {
		t.Fatalf("Len = %d, want 4", l.Len())
	}
}

func TestShrinkDisabledKeepsEverything(t *testing.T) {
	l := newTestLog(t)
	l.ShrinkEnabled = false
	logCall(t, l, 1, "open", Args{"/a"}, "fd:3", ClassOpener)
	logCall(t, l, 2, "write", Args{3, []byte("x")}, "fd:3", ClassTransient)
	logCall(t, l, 3, "close", Args{3}, "fd:3", ClassCanceler)
	logCall(t, l, 4, "open", Args{"/b"}, "fd:3", ClassOpener)
	if l.Len() != 4 {
		t.Fatalf("Len = %d with shrinking off, want 4", l.Len())
	}
}

func TestRemovalReleasesDomainStorage(t *testing.T) {
	d := newTestDomain(t)
	l := d.Log()
	logCall(t, l, 1, "open", Args{"/a"}, "fd:3", ClassOpener)
	for i := 0; i < 20; i++ {
		logCall(t, l, uint64(2+i), "write", Args{3, make([]byte, 512)}, "fd:3", ClassTransient)
	}
	used := d.BytesInUse()
	logCall(t, l, 99, "close", Args{3}, "fd:3", ClassCanceler)
	if after := d.BytesInUse(); after >= used {
		t.Fatalf("BytesInUse %d not reduced from %d by shrinking", after, used)
	}
	logCall(t, l, 100, "open", Args{"/b"}, "fd:3", ClassOpener)
	l.Reset()
	if d.BytesInUse() != 0 {
		t.Fatalf("BytesInUse = %d after Reset, want 0", d.BytesInUse())
	}
}

func TestDropRecord(t *testing.T) {
	l := newTestLog(t)
	r, err := l.BeginInbound(1, "write", Args{3, []byte("boom")})
	if err != nil {
		t.Fatal(err)
	}
	l.DropRecord(r)
	if l.Len() != 0 {
		t.Fatalf("Len = %d after DropRecord, want 0", l.Len())
	}
	l.DropRecord(Ref{}) // the zero Ref is a no-op
	l.DropRecord(r)     // and so is a stale one
}

func TestInFlightRecordsExcludedFromEntries(t *testing.T) {
	l := newTestLog(t)
	logCall(t, l, 1, "open", Args{"/a"}, "fd:3", ClassOpener)
	if _, err := l.BeginInbound(2, "write", Args{3, []byte("x")}); err != nil {
		t.Fatal(err)
	}
	entries, err := l.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("Entries = %d, want 1 (in-flight excluded)", len(entries))
	}
}

func TestSyntheticAndRemoveSession(t *testing.T) {
	l := newTestLog(t)
	logCall(t, l, 1, "open", Args{"/a"}, "fd:3", ClassOpener)
	for i := 0; i < 5; i++ {
		logCall(t, l, uint64(2+i), "write", Args{3, []byte("x")}, "fd:3", ClassTransient)
	}
	removed := l.RemoveWhere(func(v RecordKey) bool { return v.Session == "fd:3" })
	if removed != 6 {
		t.Fatalf("RemoveWhere(session fd:3) removed %d, want 6", removed)
	}
	if err := l.AppendSynthetic("__vfs_install_fd", Args{3, "/a", int64(5)}, "fd:3"); err != nil {
		t.Fatal(err)
	}
	entries, _ := l.Entries()
	if len(entries) != 1 || !entries[0].Synthetic {
		t.Fatalf("entries = %+v, want one synthetic", entries)
	}
	if l.Stats().Compacted != 6 {
		t.Fatalf("Compacted = %d, want 6", l.Stats().Compacted)
	}
}

func TestRemoveWhere(t *testing.T) {
	l := newTestLog(t)
	logCall(t, l, 1, "open", Args{"/a"}, "fd:3", ClassOpener)
	logCall(t, l, 2, "write", Args{3, []byte("x")}, "fd:3", ClassTransient)
	logCall(t, l, 3, "fcntl", Args{3, 1}, "fd:3", ClassDurable)
	n := l.RemoveWhere(func(r RecordKey) bool { return r.Fn == "write" })
	if n != 1 || l.Len() != 2 {
		t.Fatalf("RemoveWhere removed %d, len %d", n, l.Len())
	}
}

func TestLogStats(t *testing.T) {
	l := newTestLog(t)
	logCall(t, l, 1, "open", Args{"/a"}, "fd:3", ClassOpener)
	logCall(t, l, 2, "write", Args{3, []byte("x")}, "fd:3", ClassTransient)
	logCall(t, l, 3, "close", Args{3}, "fd:3", ClassCanceler)
	s := l.Stats()
	if s.Appended != 3 {
		t.Fatalf("Appended = %d, want 3", s.Appended)
	}
	if s.Removed != 1 {
		t.Fatalf("Removed = %d, want 1 (the write)", s.Removed)
	}
	l.MarkReplayed(2)
	if l.Stats().Replayed != 2 {
		t.Fatalf("Replayed = %d, want 2", l.Stats().Replayed)
	}
}

// TestStaleRefIsRefused: once a record leaves the log, its slot goes to
// the next record. A write through the old handle must fail with
// ErrStaleRecord and leave the new occupant as it was; dropping through
// it stays a no-op.
func TestStaleRefIsRefused(t *testing.T) {
	l := newTestLog(t)
	old, err := l.BeginInbound(1, "write", Args{3, []byte("crashed")})
	if err != nil {
		t.Fatal(err)
	}
	l.DropRecord(old)
	cur, err := l.BeginInbound(2, "write", Args{3, []byte("retried")})
	if err != nil {
		t.Fatal(err)
	}
	if cur.slot != old.slot {
		t.Fatalf("the retry took slot %d, not the freed slot %d", cur.slot, old.slot)
	}
	inUse := l.d.BytesInUse()
	if err := l.AppendOutboundTo(old, "9pfs", "uk_9pfs_write", mustEncode(Args{7}), ""); !errors.Is(err, ErrStaleRecord) {
		t.Fatalf("AppendOutboundTo through a stale ref: %v, want ErrStaleRecord", err)
	}
	if err := l.EndInbound(old, "fd:3", ClassTransient, Args{7}, ""); !errors.Is(err, ErrStaleRecord) {
		t.Fatalf("EndInbound through a stale ref: %v, want ErrStaleRecord", err)
	}
	l.DropRecord(old)
	if got := l.d.BytesInUse(); got != inUse || l.Len() != 1 {
		t.Fatalf("stale writes changed the log: %d records, %d bytes in use (want 1, %d)", l.Len(), got, inUse)
	}
	if r, _ := l.live(cur); !r.open || len(r.Outbound) != 0 {
		t.Fatalf("the slot's new occupant was written through the stale ref: %+v", *r)
	}
	if err := l.EndInbound(cur, "fd:3", ClassTransient, Args{7}, ""); err != nil {
		t.Fatal(err)
	}
	if entries, _ := l.Entries(); len(entries) != 1 || entries[0].Seq != 2 {
		t.Fatalf("Entries = %+v, want the retried record alone", entries)
	}
}

// TestLoggingACallAllocatesNothing: once the table has grown to the log's
// peak, a logged call with two outbound results, ended as a transient and
// then shrunk away by its session's canceler, reuses a slot and its
// Outbound array and allocates nothing.
func TestLoggingACallAllocatesNothing(t *testing.T) {
	l := newTestLog(t)
	args, err := AppendArgs(nil, Args{3, []byte("payload")})
	if err != nil {
		t.Fatal(err)
	}
	out, rets := mustEncode(Args{[]byte("fid"), 7}), mustEncode(Args{159})
	seq := uint64(0)
	call := func(fn string, class Class, outbound int) {
		seq++
		r, err := l.BeginInboundEncoded(seq, fn, args)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < outbound; i++ {
			if err := l.AppendOutboundTo(r, "9pfs", "uk_9pfs_write", out, ""); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.EndInboundEncoded(r, "fd:3", class, rets, ""); err != nil {
			t.Fatal(err)
		}
	}
	// open (reusing the closed session drops its opener and canceler),
	// write, close (dropping the write).
	cycle := func() {
		call("open", ClassOpener, 0)
		call("write", ClassTransient, 2)
		call("close", ClassCanceler, 0)
	}
	cycle()
	cycle()
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Fatalf("%v allocations per logged cycle, want 0", n)
	}
	if l.Len() != 2 || len(l.recs) != 3 {
		t.Fatalf("%d records in a table of %d slots, want 2 in 3", l.Len(), len(l.recs))
	}
}
