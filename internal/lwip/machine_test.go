package lwip

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSegmentCodecRoundTrip(t *testing.T) {
	in := Segment{
		Src: IP4(10, 0, 0, 2), Dst: IP4(10, 0, 0, 100),
		SrcPort: 80, DstPort: 43210,
		Seq: 0xDEADBEEF, Ack: 12345,
		Flags:   FlagACK | FlagPSH,
		Payload: []byte("HTTP/1.1 200 OK\r\n"),
	}
	out, err := DecodeSegment(EncodeSegment(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Src != in.Src || out.Dst != in.Dst || out.SrcPort != in.SrcPort ||
		out.DstPort != in.DstPort || out.Seq != in.Seq || out.Ack != in.Ack ||
		out.Flags != in.Flags || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip: got %v, want %v", out, in)
	}
}

func TestSegmentCodecRejectsTruncation(t *testing.T) {
	p := EncodeSegment(Segment{Payload: []byte("abcdef")})
	if _, err := DecodeSegment(p[:10]); err == nil {
		t.Fatal("decoded truncated header")
	}
	if _, err := DecodeSegment(p[:len(p)-3]); err == nil {
		t.Fatal("decoded truncated payload")
	}
}

func TestSegmentCodecProperty(t *testing.T) {
	f := func(seq, ack uint32, sp, dp uint16, flags uint8, payload []byte) bool {
		in := Segment{
			Src: Addr(seq ^ 7), Dst: Addr(ack ^ 3), SrcPort: sp, DstPort: dp,
			Seq: seq, Ack: ack, Flags: Flags(flags), Payload: payload,
		}
		out, err := DecodeSegment(EncodeSegment(in))
		return err == nil && out.Seq == seq && out.Ack == ack &&
			bytes.Equal(out.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAppendSegmentMatchesEncode: encoding into a reused buffer that is
// longer than the frame and full of an older frame's bytes gives exactly
// EncodeSegment's bytes, empty payloads included, and appends to what dst
// already holds.
func TestAppendSegmentMatchesEncode(t *testing.T) {
	stale := bytes.Repeat([]byte{0xA5}, 512)
	check := func(in Segment) bool {
		want := EncodeSegment(in)
		dst := append([]byte(nil), stale...)
		got := AppendSegment(dst[:0], in)
		if !bytes.Equal(got, want) {
			return false
		}
		prefix := []byte("head")
		got = AppendSegment(append(stale[:0:0], prefix...), in)
		return bytes.Equal(got[:len(prefix)], prefix) && bytes.Equal(got[len(prefix):], want)
	}
	for _, in := range []Segment{
		{},
		{Src: IP4(10, 0, 0, 2), Dst: IP4(10, 0, 0, 9), SrcPort: 7, DstPort: 4000, Seq: 1, Ack: 2, Flags: FlagACK},
		{Flags: FlagSYN | FlagACK, Payload: []byte{}},
		{Seq: 0xFFFFFFFF, Payload: []byte("ping")},
	} {
		if !check(in) {
			t.Fatalf("AppendSegment(%v) differs from EncodeSegment", in)
		}
	}
	f := func(src, dst, seq, ack uint32, sp, dp uint16, flags uint8, payload []byte) bool {
		return check(Segment{Src: Addr(src), Dst: Addr(dst), SrcPort: sp, DstPort: dp,
			Seq: seq, Ack: ack, Flags: Flags(flags), Payload: payload})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// pair wires two machines through in-order delivery queues and pumps
// until quiescent.
type pair struct {
	a, b   *Machine
	toA    []Segment
	toB    []Segment
	client Addr
	server Addr
}

func newPair(t *testing.T) *pair {
	t.Helper()
	p := &pair{client: IP4(10, 0, 0, 100), server: IP4(10, 0, 0, 2)}
	p.a = NewActive(p.client, 40000, p.server, 80, 1000, func(s Segment) { p.toB = append(p.toB, s) })
	// The SYN is in flight; build the passive side from it.
	p.pumpOnceToB(t)
	return p
}

func (p *pair) pumpOnceToB(t *testing.T) {
	t.Helper()
	if len(p.toB) == 0 {
		t.Fatal("no segment in flight toward server")
	}
	s := p.toB[0]
	p.toB = p.toB[1:]
	if p.b == nil {
		var err error
		p.b, err = NewPassive(p.server, 80, 9000, s, func(s Segment) { p.toA = append(p.toA, s) })
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	p.b.OnSegment(s)
}

// pump delivers all in-flight segments until both directions drain.
func (p *pair) pump(t *testing.T) {
	t.Helper()
	for len(p.toA)+len(p.toB) > 0 {
		for len(p.toA) > 0 {
			s := p.toA[0]
			p.toA = p.toA[1:]
			p.a.OnSegment(s)
		}
		for len(p.toB) > 0 {
			p.pumpOnceToB(t)
		}
	}
}

func TestHandshake(t *testing.T) {
	p := newPair(t)
	p.pump(t)
	if p.a.State() != StateEstablished {
		t.Fatalf("client state = %v", p.a.State())
	}
	if p.b.State() != StateEstablished {
		t.Fatalf("server state = %v", p.b.State())
	}
}

func TestDataTransferBothDirections(t *testing.T) {
	p := newPair(t)
	p.pump(t)
	if err := p.a.Send([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	p.pump(t)
	got := p.b.Recv(1024)
	if string(got) != "GET / HTTP/1.1\r\n\r\n" {
		t.Fatalf("server received %q", got)
	}
	if err := p.b.Send([]byte("200 OK")); err != nil {
		t.Fatal(err)
	}
	p.pump(t)
	if got := p.a.Recv(1024); string(got) != "200 OK" {
		t.Fatalf("client received %q", got)
	}
}

func TestGracefulClose(t *testing.T) {
	p := newPair(t)
	p.pump(t)
	p.a.Close()
	p.pump(t)
	if !p.b.PeerClosed() {
		t.Fatal("server did not observe client FIN")
	}
	if p.b.State() != StateCloseWait {
		t.Fatalf("server state = %v, want close-wait", p.b.State())
	}
	p.b.Close()
	p.pump(t)
	if p.a.State() != StateDone || p.b.State() != StateDone {
		t.Fatalf("states after full close: %v / %v", p.a.State(), p.b.State())
	}
	if p.a.WasReset() || p.b.WasReset() {
		t.Fatal("graceful close flagged a reset")
	}
}

func TestRecvPartial(t *testing.T) {
	p := newPair(t)
	p.pump(t)
	if err := p.a.Send([]byte("abcdefgh")); err != nil {
		t.Fatal(err)
	}
	p.pump(t)
	if got := p.b.Recv(3); string(got) != "abc" {
		t.Fatalf("first Recv = %q", got)
	}
	if got := p.b.Recv(100); string(got) != "defgh" {
		t.Fatalf("second Recv = %q", got)
	}
	if p.b.Readable() != 0 {
		t.Fatal("Readable != 0 after draining")
	}
}

func TestSendOnUnconnectedFails(t *testing.T) {
	var sunk []Segment
	m := NewActive(IP4(1, 1, 1, 1), 1, IP4(2, 2, 2, 2), 2, 0, func(s Segment) { sunk = append(sunk, s) })
	if err := m.Send([]byte("x")); err == nil {
		t.Fatal("Send in syn-sent succeeded")
	}
}

func TestStaleSequenceTriggersRST(t *testing.T) {
	// A server that "rebooted" without restoring sequence numbers: the
	// peer's next data segment carries a seq the fresh machine does not
	// expect; the connection must die by RST — the failure VampOS's
	// runtime-state extraction exists to prevent.
	p := newPair(t)
	p.pump(t)
	if err := p.a.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	p.pump(t)
	// Wipe the server's idea of the stream: restore with wrong RcvNxt.
	bad := p.b.Snapshot()
	bad.RcvNxt -= 5
	p.b = Restore(bad, func(s Segment) { p.toA = append(p.toA, s) })
	if err := p.a.Send([]byte("world")); err != nil {
		t.Fatal(err)
	}
	p.pump(t)
	if !p.a.WasReset() {
		t.Fatal("client not reset by out-of-sync server")
	}
}

func TestSnapshotRestoreContinuesStream(t *testing.T) {
	// The VampOS path: extract the machine state, rebuild a fresh
	// machine from it, and the connection keeps working transparently.
	p := newPair(t)
	p.pump(t)
	if err := p.a.Send([]byte("before ")); err != nil {
		t.Fatal(err)
	}
	p.pump(t)
	st := p.b.Snapshot()
	p.b = Restore(st, func(s Segment) { p.toA = append(p.toA, s) })
	if err := p.a.Send([]byte("after")); err != nil {
		t.Fatal(err)
	}
	p.pump(t)
	if got := p.b.Recv(1024); string(got) != "before after" {
		t.Fatalf("stream after restore = %q", got)
	}
	if err := p.b.Send([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	p.pump(t)
	if got := p.a.Recv(10); string(got) != "ok" {
		t.Fatalf("reply after restore = %q", got)
	}
	if p.a.WasReset() || p.b.WasReset() {
		t.Fatal("restored connection was reset")
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	p := newPair(t)
	p.pump(t)
	if err := p.a.Send([]byte("data")); err != nil {
		t.Fatal(err)
	}
	p.pump(t)
	st := p.b.Snapshot()
	p.b.Recv(4) // mutate the original
	if string(st.RecvBuf) != "data" {
		t.Fatalf("snapshot buffer aliased: %q", st.RecvBuf)
	}
}

// Property: any sequence of randomly sized sends in both directions is
// delivered intact and in order.
func TestStreamIntegrityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := newPair(t)
		p.pump(t)
		var sentAB, sentBA, gotAB, gotBA []byte
		for i := 0; i < 40; i++ {
			n := 1 + rng.Intn(600)
			data := make([]byte, n)
			rng.Read(data)
			if rng.Intn(2) == 0 {
				if p.a.Send(data) != nil {
					return false
				}
				sentAB = append(sentAB, data...)
			} else {
				if p.b.Send(data) != nil {
					return false
				}
				sentBA = append(sentBA, data...)
			}
			p.pump(t)
			gotAB = append(gotAB, p.b.Recv(1<<20)...)
			gotBA = append(gotBA, p.a.Recv(1<<20)...)
		}
		return bytes.Equal(sentAB, gotAB) && bytes.Equal(sentBA, gotBA)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestRecvKeepsItsBuffer: reading delivered bytes keeps the receive
// buffer's array, so a warm delivery appends in place. A delivery then a
// full Recv allocates only the copy Recv hands out, and Consume, which
// reads in place, nothing.
func TestRecvKeepsItsBuffer(t *testing.T) {
	m := Restore(MachineState{State: StateEstablished, RcvNxt: 1}, func(Segment) {})
	payload := []byte("0123456789")
	deliver := func() {
		m.OnSegment(Segment{Seq: m.st.RcvNxt, Flags: FlagACK | FlagPSH, Payload: payload})
	}
	deliver()
	m.Recv(len(payload))
	if n := testing.AllocsPerRun(100, func() { deliver(); m.Recv(len(payload)) }); n != 1 {
		t.Fatalf("%v allocations per delivery and Recv, want 1 (the bytes Recv returns)", n)
	}
	if n := testing.AllocsPerRun(100, func() { deliver(); m.Consume(len(payload)) }); n != 0 {
		t.Fatalf("%v allocations per delivery and Consume, want 0", n)
	}
}

// TestRecvBufferMatchesAQueue: under any mix of deliveries and reads of
// any size, the unread bytes — what Readable counts, Snapshot and the
// runtime blob save — are exactly a plain byte queue's, and the buffer
// stays within twice the most bytes ever unread at once.
func TestRecvBufferMatchesAQueue(t *testing.T) {
	f := func(ops []uint8) bool {
		m := Restore(MachineState{State: StateEstablished, RcvNxt: 1}, func(Segment) {})
		var queue []byte
		peak := 0
		for i, op := range ops {
			n := int(op%16) + 1
			if op&0x80 != 0 {
				p := bytes.Repeat([]byte{byte(i)}, n)
				m.OnSegment(Segment{Seq: m.st.RcvNxt, Flags: FlagACK, Payload: p})
				queue = append(queue, p...)
				peak = max(peak, len(queue))
			} else {
				var got []byte
				if op&0x40 != 0 {
					got = m.Recv(n)
				} else {
					got = bytes.Clone(m.Consume(n))
				}
				n = min(n, len(queue))
				if !bytes.Equal(got, queue[:n]) {
					t.Fatalf("step %d read %q, want %q", i, got, queue[:n])
				}
				queue = queue[n:]
			}
			var enc sockEncoder
			blob := enc.encode(map[int]*sock{1: {ID: 1, State: sockConn, m: m}}, 1, 0, true)
			_, _, socks, err := decodeSocks(blob, nil)
			if err != nil {
				t.Fatal(err)
			}
			if m.Readable() != len(queue) || !bytes.Equal(m.Snapshot().RecvBuf, queue) ||
				!bytes.Equal(socks[0].m.st.RecvBuf, queue) {
				t.Fatalf("step %d: unread %d %q, saved %q, want %q", i, m.Readable(), m.Snapshot().RecvBuf, socks[0].m.st.RecvBuf, queue)
			}
			if len(m.st.RecvBuf) > 2*peak {
				t.Fatalf("step %d: receive buffer of %d bytes for at most %d unread", i, len(m.st.RecvBuf), peak)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
