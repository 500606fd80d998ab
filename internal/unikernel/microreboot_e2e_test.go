package unikernel

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"vampos/internal/core"
	"vampos/internal/host"
	"vampos/internal/msg"
)

func microConfig() Config {
	cc := core.DaSConfig()
	cc.Microreboot = true
	return fullConfig(cc)
}

// TestProactiveSessionMicroreboot: evicting and replaying one file fd's
// session rebuilds it in place — the other fd, the component, and the
// file contents are untouched, and no component reboot happens.
func TestProactiveSessionMicroreboot(t *testing.T) {
	runInstance(t, microConfig(), func(s *Sys) {
		fd1, err := s.Open("/a.txt", OCreate|ORdwr)
		if err != nil {
			t.Fatal(err)
		}
		fd2, err := s.Open("/b.txt", OCreate|ORdwr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Write(fd1, []byte("alpha-")); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Write(fd2, []byte("beta")); err != nil {
			t.Fatal(err)
		}
		session := fmt.Sprintf("fd:%d", fd1)
		if err := s.MicrorebootSession("vfs", session); err != nil {
			t.Fatalf("MicrorebootSession: %v", err)
		}
		// The rebuilt fd writes at its surviving offset; the untouched fd
		// is oblivious.
		if _, err := s.Write(fd1, []byte("omega")); err != nil {
			t.Fatalf("write on rebuilt fd: %v", err)
		}
		if data, err := s.Pread(fd1, 64, 0); err != nil || string(data) != "alpha-omega" {
			t.Fatalf("rebuilt fd content = %q, %v", data, err)
		}
		if data, err := s.Pread(fd2, 64, 0); err != nil || string(data) != "beta" {
			t.Fatalf("untouched fd content = %q, %v", data, err)
		}
		rt := s.Instance().Runtime()
		recs := rt.Microreboots()
		if len(recs) != 1 || recs[0].Component != "vfs" || recs[0].Session != session {
			t.Fatalf("microreboot records = %+v", recs)
		}
		if recs[0].ReplayedEntries == 0 {
			t.Fatalf("microreboot replayed no entries: %+v", recs[0])
		}
		if got := len(rt.Reboots()); got != 0 {
			t.Fatalf("component reboots = %d, want 0 (rung 1 must suffice)", got)
		}
		st := rt.Stats()
		if st.Microreboots != 1 || st.MicroEscalates != 0 {
			t.Fatalf("stats = %+v", st)
		}
	})
}

// TestCrashAttributedToSessionRecoversAtRungOne: a crash striking a call
// that names one fd recovers by session microreboot — the syscall retries
// transparently and the component never reboots.
func TestCrashAttributedToSessionRecoversAtRungOne(t *testing.T) {
	inst := runInstance(t, microConfig(), func(s *Sys) {
		fd, err := s.Open("/crash.txt", OCreate|ORdwr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Write(fd, []byte("0123")); err != nil {
			t.Fatal(err)
		}
		rt := s.Instance().Runtime()
		if err := rt.ArmFaultSpec("vfs", "pwrite", core.FaultSpec{Kind: core.FaultCrash, After: 1}); err != nil {
			t.Fatal(err)
		}
		// The crashed pwrite is retried transparently across the
		// session microreboot.
		if _, err := s.Pwrite(fd, []byte("AB"), 1); err != nil {
			t.Fatalf("pwrite across crash: %v", err)
		}
		if data, err := s.Pread(fd, 16, 0); err != nil || string(data) != "0AB3" {
			t.Fatalf("content = %q, %v", data, err)
		}
	})
	rt := inst.Runtime()
	if st := rt.Stats(); st.Failures != 1 || st.Microreboots != 1 || st.MicroEscalates != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if got := len(rt.Reboots()); got != 0 {
		t.Fatalf("component reboots = %d, want 0", got)
	}
	recs := rt.Microreboots()
	if len(recs) != 1 || recs[0].Component != "vfs" {
		t.Fatalf("microreboot records = %+v", recs)
	}
}

// TestSessionMicrorebootEscalatesOnPipe: pipe ends refuse eviction (one
// buffer behind two fds), so the attempt escalates to the component
// reboot — which succeeds, preserving the pipe's content.
func TestSessionMicrorebootEscalatesOnPipe(t *testing.T) {
	runInstance(t, microConfig(), func(s *Sys) {
		r, w, err := s.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Write(w, []byte("in flight")); err != nil {
			t.Fatal(err)
		}
		// The pipe opener mints its session from the read end.
		err = s.MicrorebootSession("vfs", fmt.Sprintf("fd:%d", r))
		if !errors.Is(err, core.ErrMicrorebootEscalated) {
			t.Fatalf("MicrorebootSession on pipe = %v, want ErrMicrorebootEscalated", err)
		}
		rt := s.Instance().Runtime()
		if got := len(rt.Reboots()); got != 1 {
			t.Fatalf("component reboots = %d, want 1 (rung 2 after escalation)", got)
		}
		if got := len(rt.Microreboots()); got != 0 {
			t.Fatalf("microreboot records = %d, want 0", got)
		}
		if st := rt.Stats(); st.MicroEscalates != 1 || st.Microreboots != 0 {
			t.Fatalf("stats = %+v", st)
		}
		// The rung-2 recovery restored the whole component, pipe included.
		if data, _, err := s.Read(r, 64); err != nil || string(data) != "in flight" {
			t.Fatalf("pipe read after escalation = %q, %v", data, err)
		}
	})
}

// TestSessionMicrorebootKeepsOtherConnectionsServing: one live TCP
// connection's vfs session is microrebooted while a second connection
// keeps echoing — the untouched session observes zero errors.
func TestSessionMicrorebootKeepsOtherConnectionsServing(t *testing.T) {
	runInstance(t, microConfig(), func(s *Sys) {
		startEchoServer(t, s)
		peer := s.NewPeer()
		th := s.Ctx().Thread()
		dial := func() *host.PeerConn {
			conn, err := peer.Dial(th, 7777, time.Second)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			return conn
		}
		echo := func(conn *host.PeerConn, payload string) {
			t.Helper()
			if err := conn.Send(th, []byte(payload)); err != nil {
				t.Fatalf("send %q: %v", payload, err)
			}
			if got, err := conn.RecvExactly(th, len(payload), time.Second); err != nil || string(got) != payload {
				t.Fatalf("echo %q = %q, %v", payload, got, err)
			}
		}
		connA, connB := dial(), dial()
		echo(connA, "a-before")
		echo(connB, "b-before")

		// Pick the victim: the most recently opened vfs session still live
		// in the log is the accept for connB's server-side fd.
		rt := s.Instance().Runtime()
		views, err := rt.LogRecords("vfs")
		if err != nil {
			t.Fatal(err)
		}
		var victim msg.SessionID
		for i := len(views) - 1; i >= 0 && victim == ""; i-- {
			if v := views[i]; v.Class == msg.ClassOpener && rt.SessionLive("vfs", v.Session) {
				victim = v.Session
			}
		}
		if victim == "" {
			t.Fatal("no live vfs session in the log")
		}
		if err := s.MicrorebootSession("vfs", string(victim)); err != nil {
			t.Fatalf("MicrorebootSession(%s): %v", victim, err)
		}
		// Both connections serve on: the victim session was rebuilt from
		// its log slice, the other was never touched.
		echo(connA, "a-after!")
		echo(connB, "b-after!")
		if got := len(rt.Reboots()); got != 0 {
			t.Fatalf("component reboots = %d, want 0", got)
		}
		if got := len(rt.Microreboots()); got != 1 {
			t.Fatalf("microreboots = %d, want 1", got)
		}
		connA.Close(th)
		connB.Close(th)
	})
}
