package host

import (
	"testing"
	"time"

	"vampos/internal/clock"
	"vampos/internal/lwip"
	"vampos/internal/mem"
	"vampos/internal/ninep"
	"vampos/internal/sched"
	"vampos/internal/virtio"
)

// world is a minimal guest-less harness: a scheduler, memory, a host,
// and hand-made virtio devices so host behaviour is testable without
// booting a unikernel.
type world struct {
	sch    *sched.Scheduler
	m      *mem.Memory
	h      *Host
	netDev *virtio.Device
	p9Dev  *virtio.Device
}

func newWorld(t *testing.T) *world {
	t.Helper()
	clk := clock.NewVirtual()
	sch := sched.New(clk, sched.NewDependencyAware())
	m := mem.New(256 * mem.PageSize)
	if err := sch.SetMemory(m); err != nil {
		t.Fatal(err)
	}
	h := New(sch)
	mk := func(name string) *virtio.Device {
		tx, err := m.AllocPages(4, 1)
		if err != nil {
			t.Fatal(err)
		}
		rx, err := m.AllocPages(4, 1)
		if err != nil {
			t.Fatal(err)
		}
		dev, err := virtio.NewDevice(name, m, tx, rx, 16, 2048)
		if err != nil {
			t.Fatal(err)
		}
		return dev
	}
	w := &world{sch: sch, m: m, h: h, netDev: mk("net"), p9Dev: mk("9p")}
	h.AttachNet(w.netDev)
	h.Attach9P(w.p9Dev)
	h.Start()
	return w
}

// run executes fn as a simulated thread and drives the scheduler until
// everything stops.
func (w *world) run(t *testing.T, fn func(th *sched.Thread)) {
	t.Helper()
	w.sch.Spawn("test", mem.AllowAll, func(th *sched.Thread) {
		defer w.sch.Stop()
		fn(th)
	})
	if err := w.sch.Run(); err != nil {
		t.Fatal(err)
	}
}

// guestRPC emulates the guest driver side of one 9P round trip.
func (w *world) guestRPC(t *testing.T, th *sched.Thread, req *ninep.Fcall) *ninep.Fcall {
	t.Helper()
	p, err := ninep.Encode(req)
	if err != nil {
		t.Fatal(err)
	}
	acc := mem.NewAccessor(w.m, mem.AllowAll)
	if err := w.p9Dev.GuestSend(acc, p); err != nil {
		t.Fatal(err)
	}
	deadline := w.sch.Clock().Elapsed() + time.Second
	for {
		resp, ok, err := w.p9Dev.GuestRecvInto(acc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			f, err := ninep.Decode(resp)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		if w.sch.Clock().Elapsed() > deadline {
			t.Fatal("9p rpc timed out")
		}
		th.Sleep(5 * time.Microsecond)
	}
}

func TestP9ServiceOverRings(t *testing.T) {
	w := newWorld(t)
	if err := w.h.FS().WriteFile("/hello", []byte("host data")); err != nil {
		t.Fatal(err)
	}
	w.run(t, func(th *sched.Thread) {
		if r := w.guestRPC(t, th, &ninep.Fcall{Type: ninep.Tversion, Tag: 1, Msize: 8192, Version: "9P2000"}); r.Type != ninep.Rversion {
			t.Fatalf("version: %v", r.Type)
		}
		if r := w.guestRPC(t, th, &ninep.Fcall{Type: ninep.Tattach, Tag: 2, Fid: 0, AFid: ninep.NoFid}); r.Type != ninep.Rattach {
			t.Fatalf("attach: %v", r.Type)
		}
		if r := w.guestRPC(t, th, &ninep.Fcall{Type: ninep.Twalk, Tag: 3, Fid: 0, NewFid: 1, Names: []string{"hello"}}); r.Type != ninep.Rwalk {
			t.Fatalf("walk: %v", r.Type)
		}
		if r := w.guestRPC(t, th, &ninep.Fcall{Type: ninep.Topen, Tag: 4, Fid: 1}); r.Type != ninep.Ropen {
			t.Fatalf("open: %v", r.Type)
		}
		r := w.guestRPC(t, th, &ninep.Fcall{Type: ninep.Tread, Tag: 5, Fid: 1, Count: 64})
		if r.Type != ninep.Rread || string(r.Data) != "host data" {
			t.Fatalf("read: %v %q", r.Type, r.Data)
		}
	})
}

func TestP9LatencyCharged(t *testing.T) {
	w := newWorld(t)
	w.run(t, func(th *sched.Thread) {
		before := w.sch.Clock().Elapsed()
		w.guestRPC(t, th, &ninep.Fcall{Type: ninep.Tversion, Tag: 1, Msize: 8192, Version: "9P2000"})
		if got := w.sch.Clock().Elapsed() - before; got < P9OpLatency {
			t.Fatalf("rpc advanced %v, want >= %v", got, P9OpLatency)
		}
	})
}

func TestP9BadRequestAnsweredWithRerror(t *testing.T) {
	w := newWorld(t)
	w.run(t, func(th *sched.Thread) {
		acc := mem.NewAccessor(w.m, mem.AllowAll)
		if err := w.p9Dev.GuestSend(acc, []byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		deadline := w.sch.Clock().Elapsed() + time.Second
		for {
			resp, ok, err := w.p9Dev.GuestRecvInto(acc, nil)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				f, err := ninep.Decode(resp)
				if err != nil {
					t.Fatal(err)
				}
				if f.Type != ninep.Rerror {
					t.Fatalf("garbage answered with %v", f.Type)
				}
				return
			}
			if w.sch.Clock().Elapsed() > deadline {
				t.Fatal("no response to garbage")
			}
			th.Sleep(5 * time.Microsecond)
		}
	})
}

func TestSwitchDropsUnroutableFrames(t *testing.T) {
	w := newWorld(t)
	w.run(t, func(th *sched.Thread) {
		acc := mem.NewAccessor(w.m, mem.AllowAll)
		// A segment addressed to a peer that does not exist.
		seg := lwip.Segment{Src: GuestIP, Dst: lwip.IP4(10, 0, 0, 250), DstPort: 1}
		if err := w.netDev.GuestSend(acc, lwip.EncodeSegment(seg)); err != nil {
			t.Fatal(err)
		}
		// And a frame that is not a segment at all.
		if err := w.netDev.GuestSend(acc, []byte("garbage")); err != nil {
			t.Fatal(err)
		}
		deadline := w.sch.Clock().Elapsed() + time.Second
		for w.h.FramesDropped < 2 {
			if w.sch.Clock().Elapsed() > deadline {
				t.Fatalf("FramesDropped = %d, want 2", w.h.FramesDropped)
			}
			th.Sleep(10 * time.Microsecond)
		}
	})
}

// TestSendToGuestAllocatesNothing: a warm sendToGuest encodes its segment
// into the host's frame buffer, and the ring copies it from there.
func TestSendToGuestAllocatesNothing(t *testing.T) {
	w := newWorld(t)
	w.run(t, func(th *sched.Thread) {
		acc := mem.NewAccessor(w.m, mem.AllowAll)
		seg := lwip.Segment{Src: lwip.IP4(10, 0, 0, 9), Dst: GuestIP, SrcPort: 4000, DstPort: 7,
			Seq: 1, Ack: 2, Flags: lwip.FlagACK | lwip.FlagPSH, Payload: []byte("ping")}
		buf := make([]byte, 0, 2048)
		send := func() {
			if err := w.h.sendToGuest(seg); err != nil {
				t.Fatal(err)
			}
			p, ok, err := w.netDev.GuestRecvInto(acc, buf)
			if err != nil || !ok {
				t.Fatalf("guest popped %v, %v", ok, err)
			}
			buf = p
		}
		send()
		if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
			t.Fatalf("%v allocations per sendToGuest, want 0", allocs)
		}
	})
}

// TestSendToGuestReencodesEveryTry: two host threads wait on a full guest
// RX ring, the second encoding its segment into the shared frame buffer
// after the first did. Each lands its own segment once the guest drains
// the ring: a retry encodes afresh.
func TestSendToGuestReencodesEveryTry(t *testing.T) {
	w := newWorld(t)
	w.run(t, func(th *sched.Thread) {
		acc := mem.NewAccessor(w.m, mem.AllowAll)
		var fillers int
		for ; w.netDev.HostSend([]byte("filler")) == nil; fillers++ {
		}
		send := func(name string, delay time.Duration, seq uint32) {
			w.sch.Spawn(name, mem.AllowAll, func(th *sched.Thread) {
				th.Sleep(delay)
				if err := w.h.sendToGuest(lwip.Segment{Dst: GuestIP, Seq: seq}); err != nil {
					t.Error(err)
				}
			})
		}
		send("first", 0, 1)
		send("second", time.Microsecond, 2)
		th.Sleep(10 * WireLatency)
		var seqs []uint32
		for deadline := w.sch.Clock().Elapsed() + time.Second; len(seqs) < 2; th.Sleep(time.Microsecond) {
			if w.sch.Clock().Elapsed() > deadline {
				t.Fatalf("segments %v reached the guest, want both", seqs)
			}
			p, ok, err := w.netDev.GuestRecvInto(acc, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
			if fillers > 0 {
				fillers--
				continue
			}
			seg, err := lwip.DecodeSegment(p)
			if err != nil {
				t.Fatal(err)
			}
			seqs = append(seqs, seg.Seq)
		}
		if seqs[0] == seqs[1] {
			t.Fatalf("the guest received segment %d twice", seqs[0])
		}
	})
}

func TestPeerDialTimesOutWithoutGuest(t *testing.T) {
	w := newWorld(t)
	w.run(t, func(th *sched.Thread) {
		peer := w.h.NewPeer()
		start := w.sch.Clock().Elapsed()
		_, err := peer.Dial(th, 80, 50*time.Millisecond)
		if err == nil {
			t.Fatal("dial succeeded with no guest stack")
		}
		if elapsed := w.sch.Clock().Elapsed() - start; elapsed < 50*time.Millisecond {
			t.Fatalf("dial gave up after %v, before the timeout", elapsed)
		}
	})
}

func TestPeersGetDistinctAddresses(t *testing.T) {
	w := newWorld(t)
	a, b := w.h.NewPeer(), w.h.NewPeer()
	if a.IP() == b.IP() {
		t.Fatalf("peers share address %v", a.IP())
	}
	if a.IP() == GuestIP || b.IP() == GuestIP {
		t.Fatal("peer got the guest address")
	}
}

func TestReattachResetsP9Session(t *testing.T) {
	w := newWorld(t)
	w.run(t, func(th *sched.Thread) {
		w.guestRPC(t, th, &ninep.Fcall{Type: ninep.Tattach, Tag: 1, Fid: 0, AFid: ninep.NoFid})
		// fid 0 is live: walking it to itself succeeds.
		walk0 := &ninep.Fcall{Type: ninep.Twalk, Tag: 2, Fid: 0, NewFid: 0}
		if r, _ := w.h.Server().Handle(walk0); r.Type != ninep.Rwalk {
			t.Fatalf("walk of the attached fid = %v", r)
		}
		// A re-attach (full VM reboot) starts a fresh session: no fid
		// of the old one is known.
		w.h.Attach9P(w.p9Dev)
		if r, _ := w.h.Server().Handle(walk0); r.Type != ninep.Rerror {
			t.Fatalf("walk of an old-session fid after re-attach = %v, want Rerror", r)
		}
		// The export itself survived.
		if err := w.h.FS().WriteFile("/durable", []byte("x")); err != nil {
			t.Fatal(err)
		}
	})
}
