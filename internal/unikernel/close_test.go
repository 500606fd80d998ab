package unikernel

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"vampos/internal/core"
)

// echoLifecycle boots an instance, serves one echo round trip (so the
// app's acceptor and connection threads, the component workers, the
// message thread and the host services are all left parked at Stop) and
// closes it.
func echoLifecycle(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	inst := runInstance(t, fullConfig(core.DaSConfig()), func(s *Sys) {
		if err := s.StartApp(&echoApp{}); err != nil {
			t.Errorf("StartApp: %v", err)
			return
		}
		th := s.Ctx().Thread()
		conn, err := s.NewPeer().Dial(th, 7777, time.Second)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		msg := []byte("ping")
		if err := conn.Send(th, msg); err != nil {
			t.Errorf("send: %v", err)
		}
		if got, err := conn.RecvExactly(th, len(msg), time.Second); err != nil || !bytes.Equal(got, msg) {
			t.Errorf("echo = %q, %v", got, err)
		}
	})
	if n := runtime.NumGoroutine(); n < 8 {
		t.Fatalf("only %d goroutines after Run: the instance should still hold its parked threads", n)
	}
	inst.Close()
	// Every simulated thread parks on a goroutine of its own; Close must
	// have unwound them all.
	n := runtime.NumGoroutine()
	for i := 0; i < 50 && n > base; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > base {
		t.Fatalf("%d goroutines after Close, %d before boot: Close left threads parked", n, base)
	}
}

// TestCloseReleasesInstance is the leak regression for campaign and
// cluster processes, which build one instance per trial or member
// incarnation: 200 boot → run → Close cycles must leave the goroutine
// count at its baseline and the heap flat.
func TestCloseReleasesInstance(t *testing.T) {
	heapInuse := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	for i := 0; i < 10; i++ { // warm pools and lazily built tables
		echoLifecycle(t)
	}
	baseG, baseHeap := runtime.NumGoroutine(), heapInuse()
	for i := 0; i < 200 && !t.Failed(); i++ {
		echoLifecycle(t)
	}
	if n := runtime.NumGoroutine(); n > baseG {
		t.Errorf("%d goroutines after 200 lifecycles, baseline %d", n, baseG)
	}
	// One leaked instance is megabytes (its guest memory alone); allow the
	// allocator's own jitter, far below a single instance.
	const slack = 4 << 20
	if heap := heapInuse(); heap > baseHeap+slack {
		t.Errorf("HeapInuse grew from %d to %d bytes over 200 lifecycles", baseHeap, heap)
	}
}
