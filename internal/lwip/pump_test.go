package lwip

import (
	"encoding/binary"
	"testing"
	"time"

	"vampos/internal/core"
	"vampos/internal/netdev"
	"vampos/internal/virtio"
)

// netPorts keeps the virtio-net device the driver attaches, so a test
// plays the host end of the wire.
type netPorts struct{ dev *virtio.Device }

func (p *netPorts) AttachNet(d *virtio.Device) { p.dev = d }
func (p *netPorts) Attach9P(*virtio.Device)    {}

// TestRxPumpOfOneSegmentAllocatesNothing: a warm rx_pump of one segment
// — popped from the virtio ring, handed up through NETDEV, demultiplexed
// by LWIP — allocates nothing: the frame crosses both hops as bytes, into
// buffers their owners keep, and LWIP parses it in place. A data segment
// allocates nothing either: LWIP encodes the ACK it sends in reply into
// its own transmit buffer.
func TestRxPumpOfOneSegmentAllocatesNothing(t *testing.T) {
	ports := &netPorts{}
	cfg := core.DaSConfig()
	cfg.MaxVirtualTime = time.Hour
	rt := core.NewRuntime(cfg)
	guest, peer := IP4(10, 0, 0, 2), IP4(10, 0, 0, 9)
	for _, c := range []core.Component{virtio.New(ports), netdev.New(), New(guest)} {
		if err := rt.Register(c); err != nil {
			t.Fatal(err)
		}
	}
	ackAllocs, dataAllocs := -1.0, -1.0
	err := rt.Run(func(c *core.Ctx) {
		call := func(fn string, args ...any) int {
			t.Helper()
			rets, err := c.Call("lwip", fn, args...)
			if err != nil {
				t.Fatalf("%s: %v", fn, err)
			}
			n, _ := rets.Int(0)
			return n
		}
		buf := make([]byte, 0, virtio.NetSlot)
		deliver := func(frame []byte) {
			if err := ports.dev.HostSend(frame); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Call("lwip", "rx_pump"); err != nil {
				t.Fatal(err)
			}
		}
		// The guest's reply, if any, taken off its TX ring.
		reply := func() (Segment, bool) {
			p, ok, err := ports.dev.HostRecvInto(buf)
			if err != nil || !ok {
				return Segment{}, false
			}
			buf = p
			s, err := parseSegment(p)
			return s, err == nil
		}
		seg := func(seq, ack uint32, flags Flags, payload string) []byte {
			return EncodeSegment(Segment{Src: peer, Dst: guest, SrcPort: 4000, DstPort: 7,
				Seq: seq, Ack: ack, Flags: flags, Payload: []byte(payload)})
		}
		lsock := call("socket")
		call("bind", lsock, 7)
		call("listen", lsock, 4)
		deliver(seg(1000, 0, FlagSYN, ""))
		synAck, ok := reply()
		if !ok || synAck.Flags != FlagSYN|FlagACK {
			t.Fatalf("guest answered the SYN with %v, %v", synAck, ok)
		}
		ack := seg(1001, synAck.Seq+1, FlagACK, "")
		deliver(ack)
		conn := call("accept", lsock)

		deliver(ack) // warm
		ackAllocs = testing.AllocsPerRun(100, func() { deliver(ack) })

		data, seq := seg(1001, synAck.Seq+1, FlagACK|FlagPSH, "ping"), uint32(1001)
		got := make([]byte, 0, 4)
		round := func() {
			binary.BigEndian.PutUint32(data[12:], seq)
			seq += 4
			deliver(data)
			if s, ok := reply(); !ok || s.Ack != seq {
				t.Fatalf("guest acked %v, %v, want ack %d", s, ok, seq)
			}
			rets, err := c.Call("lwip", "recv", conn, 4)
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := rets.AppendBytes(got[:0], 0); string(got) != "ping" {
				t.Fatalf("recv %q, want ping", got)
			}
		}
		// Warm until the pages the data path writes have their own frames.
		for i := 0; i < 300; i++ {
			round()
		}
		dataAllocs = testing.AllocsPerRun(100, round)
	})
	if err != nil {
		t.Fatal(err)
	}
	if ackAllocs != 0 {
		t.Fatalf("%v allocations per rx_pump of an ACK, want 0", ackAllocs)
	}
	if dataAllocs != 0 {
		t.Fatalf("%v allocations per rx_pump of a data segment, want 0", dataAllocs)
	}
}
