package virtio

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"vampos/internal/core"
	"vampos/internal/golden"
	"vampos/internal/mem"
	"vampos/internal/sched"
)

func newRingPair(t testing.TB, slots, slotSize int) (*mem.Memory, *Ring) {
	t.Helper()
	m := mem.New(64 * mem.PageSize)
	pages := (RingBytes(slots, slotSize) + mem.PageSize - 1) / mem.PageSize
	base, err := m.AllocPages(pages, 5)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(m, base, slots, slotSize)
	if err != nil {
		t.Fatal(err)
	}
	return m, r
}

func TestRingGuestToHostRoundTrip(t *testing.T) {
	m, r := newRingPair(t, 8, 256)
	acc := mem.NewAccessor(m, mem.Allow(5))
	for i := 0; i < 20; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, i+1)
		if err := r.GuestPush(acc, payload); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		got, ok, err := r.HostPop()
		if err != nil || !ok {
			t.Fatalf("pop %d: ok=%v err=%v", i, ok, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("pop %d: got % x", i, got)
		}
	}
}

// TestRingRoundTripAllocatesOnlyThePayload: the index and length words are
// read and written through stack buffers in both directions; the one
// allocation left is the payload a pop hands to its caller.
func TestRingRoundTripAllocatesOnlyThePayload(t *testing.T) {
	m, r := newRingPair(t, 8, 256)
	acc := mem.NewAccessor(m, mem.Allow(5))
	payload := make([]byte, 159)
	for _, dir := range []struct {
		name string
		rtt  func() ([]byte, bool, error)
	}{
		{"guest to host", func() ([]byte, bool, error) {
			if err := r.GuestPush(acc, payload); err != nil {
				return nil, false, err
			}
			return r.HostPop()
		}},
		{"host to guest", func() ([]byte, bool, error) {
			if err := r.HostPush(payload); err != nil {
				return nil, false, err
			}
			return r.GuestPop(acc)
		}},
	} {
		n := testing.AllocsPerRun(100, func() {
			if got, ok, err := dir.rtt(); err != nil || !ok || len(got) != len(payload) {
				t.Fatalf("%s: got %d bytes, ok=%v err=%v", dir.name, len(got), ok, err)
			}
		})
		// The race detector's instrumentation allocates on its own.
		if n > 1 && !golden.RaceEnabled {
			t.Errorf("%s: %v allocations per push+pop, want at most 1", dir.name, n)
		}
	}
}

// TestDeviceRecvIntoReusesTheBuffer: popping into a buffer its caller
// keeps reads the same bytes as the allocating pop, into the buffer's
// array once it is large enough, so a warm push and pop each way
// allocates nothing.
func TestDeviceRecvIntoReusesTheBuffer(t *testing.T) {
	m, dev := newTestDevice(t)
	acc := mem.NewAccessor(m, mem.Allow(5))
	var hostBuf, guestBuf []byte
	for i := 0; i < 20; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 1+i*11)
		if err := dev.GuestSend(acc, payload); err != nil {
			t.Fatal(err)
		}
		got, ok, err := dev.HostRecvInto(hostBuf)
		if err != nil || !ok || !bytes.Equal(got, payload) {
			t.Fatalf("host pop %d = %v, %v, %v; want %v", i, got, ok, err, payload)
		}
		if cap(hostBuf) >= len(payload) && &got[0] != &hostBuf[:1][0] {
			t.Fatalf("host pop %d left a buffer of %d bytes unused", i, cap(hostBuf))
		}
		hostBuf = got
		if err := dev.HostSend(payload); err != nil {
			t.Fatal(err)
		}
		if got, ok, err = dev.rx.pop(acc, guestBuf); err != nil || !ok || !bytes.Equal(got, payload) {
			t.Fatalf("guest pop %d = %v, %v, %v; want %v", i, got, ok, err, payload)
		}
		guestBuf = got
	}
	frame := make([]byte, 100)
	n := testing.AllocsPerRun(100, func() {
		_ = dev.GuestSend(acc, frame)
		hostBuf, _, _ = dev.HostRecvInto(hostBuf)
		_ = dev.HostSend(frame)
		guestBuf, _, _ = dev.rx.pop(acc, guestBuf)
	})
	if n != 0 {
		t.Fatalf("%v allocations per warm push and pop each way, want 0", n)
	}
}

// BenchmarkRingPushPop: one frame from the guest driver to the host.
func BenchmarkRingPushPop(b *testing.B) {
	m, r := newRingPair(b, 8, 256)
	acc := mem.NewAccessor(m, mem.Allow(5))
	payload := make([]byte, 159)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.GuestPush(acc, payload); err != nil {
			b.Fatal(err)
		}
		if _, ok, err := r.HostPop(); err != nil || !ok {
			b.Fatalf("pop: ok=%v err=%v", ok, err)
		}
	}
}

func TestRingFullAndEmpty(t *testing.T) {
	m, r := newRingPair(t, 4, 64)
	acc := mem.NewAccessor(m, mem.Allow(5))
	if _, ok, err := r.GuestPop(acc); ok || err != nil {
		t.Fatalf("pop from empty: ok=%v err=%v", ok, err)
	}
	for i := 0; i < 4; i++ {
		if err := r.HostPush([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.HostPush([]byte{9}); err != ErrRingFull {
		t.Fatalf("push into full ring = %v, want ErrRingFull", err)
	}
	// Draining one slot makes room again.
	if _, ok, _ := r.GuestPop(acc); !ok {
		t.Fatal("drain failed")
	}
	if err := r.HostPush([]byte{9}); err != nil {
		t.Fatalf("push after drain: %v", err)
	}
}

func TestRingRejectsOversizedPayload(t *testing.T) {
	_, r := newRingPair(t, 4, 64)
	if err := r.HostPush(make([]byte, 65)); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestRingGuestAccessChecked(t *testing.T) {
	m, r := newRingPair(t, 4, 64)
	// Wrong key: the guest access must fault.
	intruder := mem.NewAccessor(m, mem.Allow(9))
	if err := r.GuestPush(intruder, []byte{1}); err == nil {
		t.Fatal("guest push with wrong key succeeded")
	}
}

// Property: any interleaving of pushes and pops preserves FIFO order.
func TestRingFIFOProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := mem.New(64 * mem.PageSize)
		base, err := m.AllocPages(4, 1)
		if err != nil {
			return false
		}
		r, err := NewRing(m, base, 8, 32)
		if err != nil {
			return false
		}
		next := byte(0)
		var queue []byte
		for step := 0; step < 200; step++ {
			if rng.Intn(2) == 0 {
				if err := r.HostPush([]byte{next}); err == nil {
					queue = append(queue, next)
					next++
				}
			} else {
				got, ok, err := r.HostPop()
				if err != nil {
					return false
				}
				if !ok {
					if len(queue) != 0 {
						return false
					}
					continue
				}
				if len(queue) == 0 || got[0] != queue[0] {
					return false
				}
				queue = queue[1:]
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func newTestDevice(t *testing.T) (*mem.Memory, *Device) {
	t.Helper()
	m := mem.New(64 * mem.PageSize)
	txBase, err := m.AllocPages(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	rxBase, err := m.AllocPages(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := NewDevice("test", m, txBase, rxBase, 8, 256)
	if err != nil {
		t.Fatal(err)
	}
	return m, dev
}

func TestDeviceNotifyAndIRQ(t *testing.T) {
	m, dev := newTestDevice(t)
	acc := mem.NewAccessor(m, mem.Allow(5))
	doorbells, irqs := 0, 0
	dev.HostNotify = func() { doorbells++ }
	dev.GuestIRQ = func() { irqs++ }
	if err := dev.GuestSend(acc, []byte("tx")); err != nil {
		t.Fatal(err)
	}
	if doorbells != 1 {
		t.Fatalf("doorbells = %d", doorbells)
	}
	if err := dev.HostSend([]byte("rx")); err != nil {
		t.Fatal(err)
	}
	if irqs != 1 {
		t.Fatalf("irqs = %d", irqs)
	}
	got, ok, err := dev.GuestRecvInto(acc, nil)
	if err != nil || !ok || string(got) != "rx" {
		t.Fatalf("GuestRecvInto = %q ok=%v err=%v", got, ok, err)
	}
	got, ok, err = dev.HostRecv()
	if err != nil || !ok || string(got) != "tx" {
		t.Fatalf("HostRecv = %q ok=%v err=%v", got, ok, err)
	}
}

// TestUncoordinatedResetDesyncsDevice demonstrates the paper's §VIII
// argument: a guest-side ring reset behind the device's back loses I/O,
// which is why VampOS never reboots VIRTIO.
func TestUncoordinatedResetDesyncsDevice(t *testing.T) {
	m, dev := newTestDevice(t)
	acc := mem.NewAccessor(m, mem.Allow(5))
	// Normal traffic advances the host's private shadow index.
	for i := 0; i < 3; i++ {
		if err := dev.GuestSend(acc, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := dev.HostRecv(); !ok {
			t.Fatal("host missed a frame")
		}
	}
	// An uncoordinated "component reboot" zeroes the rings guest-side.
	if err := dev.tx.reset(); err != nil {
		t.Fatal(err)
	}
	if err := dev.GuestSend(acc, []byte("after reset")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := dev.HostRecv(); ok {
		t.Fatal("host accepted a frame from a desynced ring")
	}
	if !dev.Desynced() {
		t.Fatal("device did not detect the uncoordinated reset")
	}
	if err := dev.HostSend([]byte("x")); err == nil {
		t.Fatal("desynced device still transmitting")
	}
	if dev.DroppedDesync == 0 {
		t.Fatal("no drops recorded")
	}
}

// TestCoordinatedResetRecovers shows the contrast: a full VM reboot
// resets both sides together and the device works again.
func TestCoordinatedResetRecovers(t *testing.T) {
	m, dev := newTestDevice(t)
	acc := mem.NewAccessor(m, mem.Allow(5))
	for i := 0; i < 3; i++ {
		if err := dev.GuestSend(acc, []byte{1}); err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := dev.HostRecv(); !ok {
			t.Fatal("host missed a frame")
		}
	}
	if err := dev.tx.reset(); err != nil { // uncoordinated damage first
		t.Fatal(err)
	}
	_, _, _ = dev.HostRecv()
	if !dev.Desynced() {
		t.Fatal("setup: device should be desynced")
	}
	if err := dev.Reset(); err != nil { // coordinated reset
		t.Fatal(err)
	}
	if dev.Desynced() {
		t.Fatal("coordinated reset left device desynced")
	}
	if err := dev.GuestSend(acc, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := dev.HostRecv()
	if err != nil || !ok || string(got) != "ok" {
		t.Fatalf("post-reset traffic = %q ok=%v err=%v", got, ok, err)
	}
}

// stubHost is the host end of the 9P channel with no server behind it: a
// thread that echoes each request back after a fixed virtual latency.
type stubHost struct {
	dev     *Device
	th      *sched.Thread
	latency time.Duration
}

func (h *stubHost) AttachNet(*Device) {}

func (h *stubHost) Attach9P(dev *Device) {
	h.dev = dev
	dev.HostNotify = h.th.Wake
}

func (h *stubHost) loop(t *sched.Thread) {
	for {
		if h.dev == nil { // first dispatch comes before the driver's Init
			t.Block("no 9p device")
			continue
		}
		req, ok, err := h.dev.HostRecv()
		if err != nil || !ok {
			t.Block("9p idle")
			continue
		}
		t.Sleep(h.latency)
		if err := h.dev.HostSend(req); err != nil {
			panic(err)
		}
	}
}

// BenchmarkP9RPC: one RPC through the driver against a host that takes
// 250 µs of virtual time, an fsync's worth. dispatches/op is what the cost
// model charges (the call's hops plus one per 2 µs poll); executed/op is
// how many of them ran.
func BenchmarkP9RPC(b *testing.B) {
	rt := core.NewRuntime(core.DaSConfig())
	host := &stubHost{latency: 250 * time.Microsecond}
	host.th = rt.Scheduler().Spawn("host/9p", 0, host.loop)
	if err := rt.Register(New(host)); err != nil {
		b.Fatal(err)
	}
	req := make([]byte, 64)
	b.ReportAllocs()
	err := rt.Run(func(c *core.Ctx) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Call("virtio", "p9_rpc", req); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
	st := rt.SchedStats()
	b.ReportMetric(float64(st.Dispatches)/float64(b.N), "dispatches/op")
	b.ReportMetric(float64(st.Dispatches-st.Leaped)/float64(b.N), "executed/op")
	rt.Close()
}
