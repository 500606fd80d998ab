package msg

import (
	"testing"

	"vampos/internal/mem"
)

func newTestDomain(t *testing.T) *Domain {
	t.Helper()
	m := mem.New(256 * mem.PageSize)
	d, err := NewDomain("vfs", m, 7, 16)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDomainRejectsNonPowerOfTwoPages(t *testing.T) {
	m := mem.New(64 * mem.PageSize)
	if _, err := NewDomain("x", m, 1, 3); err == nil {
		t.Fatal("accepted 3 pages")
	}
	if _, err := NewDomain("x", m, 1, 0); err == nil {
		t.Fatal("accepted 0 pages")
	}
}

func TestPushPullRoundTrip(t *testing.T) {
	d := newTestDomain(t)
	in := &Message{Seq: 1, From: "app", To: "vfs", Fn: "open", Args: Args{"/etc/motd", 0}}
	if err := d.Push(in); err != nil {
		t.Fatal(err)
	}
	if d.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", d.Pending())
	}
	out, ok := d.Pull()
	if !ok {
		t.Fatal("Pull returned nothing")
	}
	if out.Seq != 1 || out.From != "app" || out.To != "vfs" || out.Fn != "open" {
		t.Fatalf("pulled %+v", out)
	}
	name, err := out.Args.Str(0)
	if err != nil || name != "/etc/motd" {
		t.Fatalf("arg 0 = %q, %v", name, err)
	}
	if _, ok := d.Pull(); ok {
		t.Fatal("Pull from empty mailbox returned a message")
	}
}

func TestPushPullFIFOOrder(t *testing.T) {
	d := newTestDomain(t)
	for i := 0; i < 10; i++ {
		if err := d.Push(&Message{Seq: uint64(i), Fn: "f", Args: Args{i}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		m, ok := d.Pull()
		if !ok || m.Seq != uint64(i) {
			t.Fatalf("pull %d: got %+v", i, m)
		}
	}
}

func TestMessageStorageReleasedOnPull(t *testing.T) {
	d := newTestDomain(t)
	payload := make([]byte, 2048)
	for i := 0; i < 50; i++ {
		if err := d.Push(&Message{Seq: uint64(i), Fn: "write", Args: Args{payload}}); err != nil {
			t.Fatal(err)
		}
		if _, ok := d.Pull(); !ok {
			t.Fatal("pull failed")
		}
	}
	if got := d.BytesInUse(); got != 0 {
		t.Fatalf("BytesInUse = %d after draining, want 0", got)
	}
}

func TestDomainExhaustionSurfacesError(t *testing.T) {
	m := mem.New(16 * mem.PageSize)
	d, err := NewDomain("tiny", m, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 3*mem.PageSize)
	if err := d.Push(&Message{Fn: "write", Args: Args{big}}); err == nil {
		t.Fatal("oversized push accepted")
	}
}

func TestDropQueued(t *testing.T) {
	d := newTestDomain(t)
	for i := 0; i < 5; i++ {
		if err := d.Push(&Message{Seq: uint64(i), Fn: "f", Args: Args{[]byte("xx")}}); err != nil {
			t.Fatal(err)
		}
	}
	if n := d.DropQueued(); n != 5 {
		t.Fatalf("DropQueued = %d, want 5", n)
	}
	if d.Pending() != 0 || d.BytesInUse() != 0 {
		t.Fatalf("after drop: pending=%d bytes=%d", d.Pending(), d.BytesInUse())
	}
}

// TestMailboxBacklogDoesNotGrowTheArray keeps messages pending while the
// head goes round the array many times: FIFO order holds, every payload
// comes back intact, and the queue stays within a small multiple of the
// backlog instead of growing with the number of messages ever pushed.
func TestMailboxBacklogDoesNotGrowTheArray(t *testing.T) {
	d := newTestDomain(t)
	const backlog = 3
	push := func(i int) {
		t.Helper()
		if err := d.Push(&Message{Seq: uint64(i), Fn: "f", Args: Args{i, []byte{byte(i)}}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < backlog; i++ {
		push(i)
	}
	for i := 0; i < 5000; i++ {
		m, ok := d.Pull()
		if !ok || m.Seq != uint64(i) {
			t.Fatalf("pull %d: got %+v, %v", i, m, ok)
		}
		if n, _ := m.Args.Int(0); n != i {
			t.Fatalf("pull %d: arg 0 = %d", i, n)
		}
		if b, _ := m.Args.Bytes(1); len(b) != 1 || b[0] != byte(i) {
			t.Fatalf("pull %d: arg 1 = %v", i, b)
		}
		push(i + backlog)
		if d.Pending() != backlog {
			t.Fatalf("after pull %d: Pending = %d, want %d", i, d.Pending(), backlog)
		}
	}
	if c := cap(d.queue); c > 4*backlog {
		t.Fatalf("queue array grew to %d slots for a backlog of %d", c, backlog)
	}
}

// TestMailboxDrainAndDropThenRefill: a mailbox emptied by Pull or by
// DropQueued starts over at the front of the same array, and what is
// pushed next is what comes out next.
func TestMailboxDrainAndDropThenRefill(t *testing.T) {
	d := newTestDomain(t)
	seq := uint64(0)
	push := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			seq++
			if err := d.Push(&Message{Seq: seq, Fn: "f", Args: Args{[]byte("xx")}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := 0; round < 4; round++ {
		push(4)
		for i := 0; i < 2; i++ { // half pulled, half dropped
			if _, ok := d.Pull(); !ok {
				t.Fatal("pull failed")
			}
		}
		if n := d.DropQueued(); n != 2 {
			t.Fatalf("round %d: DropQueued = %d, want the 2 still pending", round, n)
		}
		if _, ok := d.Pull(); ok || d.Pending() != 0 || d.BytesInUse() != 0 {
			t.Fatalf("round %d: after drop: pending=%d bytes=%d", round, d.Pending(), d.BytesInUse())
		}
		push(1)
		if m, ok := d.Pull(); !ok || m.Seq != seq {
			t.Fatalf("round %d: pulled %+v after refill, want seq %d", round, m, seq)
		}
	}
	if c := cap(d.queue); c > 8 {
		t.Fatalf("queue array grew to %d slots across drains of 4 messages", c)
	}
}

// TestPushPullEncodedAllocatesNothing: the hop carries arguments as
// bytes, and its buffers — the queue slot, the Message, the puller's
// buffer — are reused or on the stack, so a push and a pull of the echo
// payload allocate nothing.
func TestPushPullEncodedAllocatesNothing(t *testing.T) {
	d := newTestDomain(t)
	m := &Message{Seq: 1, From: "app", To: "vfs", Fn: "write"}
	args, err := AppendArgs(nil, Args{3, make([]byte, 159)})
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	hop := func() {
		if err := d.PushEncoded(m, args); err != nil {
			t.Fatal(err)
		}
		_, p, ok := d.PullEncoded(buf)
		if !ok {
			t.Fatal("mailbox empty after push")
		}
		buf = p
	}
	hop()
	if n := testing.AllocsPerRun(100, hop); n != 0 {
		t.Fatalf("%v allocations per PushEncoded+PullEncoded of the echo payload, want 0", n)
	}
}

func TestDomainIsolationByKey(t *testing.T) {
	m := mem.New(64 * mem.PageSize)
	d, err := NewDomain("vfs", m, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Push(&Message{Fn: "open", Args: Args{"/x"}}); err != nil {
		t.Fatal(err)
	}
	// A component with a foreign key cannot write the domain's pages.
	intruder := mem.NewAccessor(m, mem.Allow(3))
	if err := intruder.Write(d.base, []byte{0xFF}); err == nil {
		t.Fatal("foreign component wrote into the message domain")
	}
	// A read-only grant (the receiver posture) allows reads, not writes.
	receiver := mem.NewAccessor(m, mem.Allow(3).WithRead(7))
	if _, err := receiver.ReadBytes(d.base, 8); err != nil {
		t.Fatalf("receiver read failed: %v", err)
	}
	if err := receiver.Write(d.base, []byte{0}); err == nil {
		t.Fatal("receiver wrote with a read-only grant")
	}
}
