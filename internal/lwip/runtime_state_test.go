package lwip

import (
	"bytes"
	"reflect"
	"testing"
)

// rtTable builds a socket table holding two live connections, a listener
// with queued connections, and entries the runtime state skips, inserting
// them in the given order. Map order must not reach the blob.
func rtTable(order []int) map[int]*sock {
	mk := map[int]func() *sock{
		2: func() *sock { return &sock{ID: 2, State: sockListening, LocalPort: 80, AcceptQ: []int{5, 3}} },
		3: func() *sock {
			return &sock{ID: 3, State: sockConn, Listener: 2, m: &Machine{st: MachineState{
				Local: IP4(10, 0, 0, 2), Remote: IP4(10, 0, 0, 100), LocalPort: 80, RemotePort: 40001,
				State: StateEstablished, SndNxt: 0xDEADBEEF, RcvNxt: 77, RecvBuf: []byte("unread"),
			}}}
		},
		5: func() *sock {
			return &sock{ID: 5, State: sockConn, Listener: 2, m: &Machine{st: MachineState{
				Local: IP4(10, 0, 0, 2), Remote: IP4(10, 0, 0, 101), LocalPort: 80, RemotePort: 40002,
				State: StateEstablished, SndNxt: 9, RcvNxt: 10,
				PeerClosed: true, FinSent: true, FinAcked: true, FinSeq: 8,
			}}}
		},
		7: func() *sock { return &sock{ID: 7, State: sockFresh} },
		8: func() *sock { return &sock{ID: 8, State: sockListening, LocalPort: 81} }, // empty queue: skipped
	}
	socks := make(map[int]*sock)
	for _, id := range order {
		socks[id] = mk[id]()
	}
	return socks
}

func TestRuntimeStateRoundTrip(t *testing.T) {
	socks := rtTable([]int{2, 3, 5, 7, 8})
	var enc rtEncoder
	got, err := decodeRuntimeState(enc.encode(socks, 8, 4242))
	if err != nil {
		t.Fatal(err)
	}
	want := runtimeState{
		NextSock: 8, ISN: 4242,
		Conns: []savedConn{
			{ID: 3, Listener: 2, Machine: socks[3].m.st},
			{ID: 5, Listener: 2, Machine: socks[5].m.st},
		},
		AcceptQs: []savedAcceptQ{{Listener: 2, Queue: []int{5, 3}}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	// The decoded state must not alias the blob: the encoder reuses it.
	enc.encode(rtTable([]int{3}), 1, 1)
	if string(got.Conns[0].Machine.RecvBuf) != "unread" {
		t.Fatal("decoded RecvBuf aliases the encoder's reused buffer")
	}
	if got, err := decodeRuntimeState(enc.encode(nil, 0, 100)); err != nil || len(got.Conns)+len(got.AcceptQs) != 0 {
		t.Fatalf("empty table: %+v, %v", got, err)
	}
}

// TestRuntimeStateOrderIndependent pins the one-seed-one-order contract:
// the blob, and with it the order a reboot re-allocates PCBs in, depends
// on the table's contents, never on map insertion or iteration order.
func TestRuntimeStateOrderIndependent(t *testing.T) {
	var a, b rtEncoder
	want := append([]byte(nil), a.encode(rtTable([]int{2, 3, 5, 7, 8}), 8, 4242)...)
	for _, order := range [][]int{{8, 7, 5, 3, 2}, {5, 2, 8, 3, 7}, {3, 5, 2, 7, 8}} {
		for i := 0; i < 20; i++ { // fresh maps: fresh iteration seeds
			if got := b.encode(rtTable(order), 8, 4242); !bytes.Equal(got, want) {
				t.Fatalf("insertion order %v changed the blob:\n got %x\nwant %x", order, got, want)
			}
		}
	}
}

func TestRuntimeStateEncodeReusesBuffer(t *testing.T) {
	socks := rtTable([]int{2, 3, 5})
	var enc rtEncoder
	enc.encode(socks, 8, 1)
	if n := testing.AllocsPerRun(100, func() { enc.encode(socks, 8, 1) }); n != 0 {
		t.Fatalf("steady-state encode allocates %v objects, want 0", n)
	}
}

// FuzzRuntimeStateDecode feeds arbitrary bytes to the decoder a reboot
// runs on the saved blob: it may reject them but must never panic or size
// an allocation from a count the bytes cannot back.
func FuzzRuntimeStateDecode(f *testing.F) {
	var enc rtEncoder
	valid := append([]byte(nil), enc.encode(rtTable([]int{2, 3, 5, 7, 8}), 8, 4242)...)
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(append([]byte(nil), enc.encode(nil, 0, 100)...))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64)) // huge counts
	f.Fuzz(func(t *testing.T, p []byte) {
		st, err := decodeRuntimeState(p)
		if err != nil {
			return
		}
		if len(st.Conns)*rtConnLen+len(st.AcceptQs)*rtQueueLen > len(p) {
			t.Fatalf("accepted %d conns and %d queues from %d bytes", len(st.Conns), len(st.AcceptQs), len(p))
		}
	})
}
