package lwip

import (
	"bytes"
	"reflect"
	"testing"
)

// rtTable builds a socket table holding two live connections, a listener
// with queued connections, and entries the runtime blob skips, inserting
// them in the given order. Map order must not reach the blob.
func rtTable(order []int) map[int]*sock {
	mk := map[int]func() *sock{
		2: func() *sock {
			return &sock{ID: 2, State: sockListening, LocalPort: 80, Backlog: 16, AcceptQ: []int{5, 3},
				ctlBlock: 0x4000, Opts: map[int]int{7: 70, 1: 10, 3: 30}}
		},
		3: func() *sock {
			return &sock{ID: 3, State: sockConn, LocalPort: 80, Listener: 2, ctlBlock: 0x4100,
				Opts: map[int]int{9: 1}, m: &Machine{st: MachineState{
					Local: IP4(10, 0, 0, 2), Remote: IP4(10, 0, 0, 100), LocalPort: 80, RemotePort: 40001,
					State: StateEstablished, SndNxt: 0xDEADBEEF, RcvNxt: 77, RecvBuf: []byte("unread"),
				}}}
		},
		5: func() *sock {
			return &sock{ID: 5, State: sockConn, LocalPort: 80, Listener: 2, Opts: map[int]int{}, m: &Machine{st: MachineState{
				Local: IP4(10, 0, 0, 2), Remote: IP4(10, 0, 0, 101), LocalPort: 80, RemotePort: 40002,
				State: StateEstablished, SndNxt: 9, RcvNxt: 10,
				PeerClosed: true, FinSent: true, FinAcked: true, FinSeq: 8,
			}}}
		},
		7: func() *sock { return &sock{ID: 7, State: sockFresh, Opts: map[int]int{}} },
		8: func() *sock { return &sock{ID: 8, State: sockListening, LocalPort: 81, Opts: map[int]int{}} }, // empty queue: not runtime state
	}
	socks := make(map[int]*sock)
	for _, id := range order {
		socks[id] = mk[id]()
	}
	return socks
}

// sockFields is a socket without its machine's output hook, which
// DeepEqual cannot compare.
type sockFields struct {
	s  sock
	st *MachineState
}

func fieldsOf(socks []*sock) []sockFields {
	var out []sockFields
	for _, s := range socks {
		f := sockFields{s: *s}
		f.s.m = nil
		if s.m != nil {
			f.st = &s.m.st
		}
		out = append(out, f)
	}
	return out
}

func TestRuntimeStateRoundTrip(t *testing.T) {
	table := rtTable([]int{2, 3, 5, 7, 8})
	var enc sockEncoder
	nextSock, isn, got, err := decodeSocks(enc.encode(table, 8, 4242, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The runtime blob holds the live connections and the listener with
	// a queue, in id order; the fresh socket and the idle listener are
	// replay's to rebuild.
	if nextSock != 8 || isn != 4242 {
		t.Fatalf("counters = %d, %d; want 8, 4242", nextSock, isn)
	}
	want := []*sock{table[2], table[3], table[5]}
	if !reflect.DeepEqual(fieldsOf(got), fieldsOf(want)) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", fieldsOf(got), fieldsOf(want))
	}
	// The decoded state must not alias the blob: the encoder reuses it.
	enc.encode(rtTable([]int{3}), 1, 1, false)
	if string(got[1].m.st.RecvBuf) != "unread" {
		t.Fatal("decoded RecvBuf aliases the encoder's reused buffer")
	}
	if _, _, got, err := decodeSocks(enc.encode(nil, 0, 100, false), nil); err != nil || len(got) != 0 {
		t.Fatalf("empty table: %+v, %v", got, err)
	}
}

// TestRuntimeStateOrderIndependent pins the one-seed-one-order contract:
// the blob, and with it the order a reboot re-allocates PCBs in, depends
// on the table's contents, never on map insertion or iteration order.
func TestRuntimeStateOrderIndependent(t *testing.T) {
	for _, all := range []bool{false, true} {
		var a, b sockEncoder
		want := append([]byte(nil), a.encode(rtTable([]int{2, 3, 5, 7, 8}), 8, 4242, all)...)
		for _, order := range [][]int{{8, 7, 5, 3, 2}, {5, 2, 8, 3, 7}, {3, 5, 2, 7, 8}} {
			for i := 0; i < 20; i++ { // fresh maps: fresh iteration seeds
				if got := b.encode(rtTable(order), 8, 4242, all); !bytes.Equal(got, want) {
					t.Fatalf("all=%v: insertion order %v changed the blob:\n got %x\nwant %x", all, order, got, want)
				}
			}
		}
	}
}

func TestRuntimeStateEncodeReusesBuffer(t *testing.T) {
	socks := rtTable([]int{2, 3, 5})
	var enc sockEncoder
	enc.encode(socks, 8, 1, false)
	if n := testing.AllocsPerRun(100, func() { enc.encode(socks, 8, 1, false) }); n != 0 {
		t.Fatalf("steady-state encode allocates %v objects, want 0", n)
	}
}

// TestSaveRestoreSaveIsIdentity: the checkpoint image of a table with a
// listener, connections, an accept queue and opts is one byte string,
// however often it is taken, and restoring it gives the same image back.
func TestSaveRestoreSaveIsIdentity(t *testing.T) {
	c := &Comp{socks: rtTable([]int{2, 3, 5, 7, 8}), nextSock: 8, isn: 4242}
	img, err := c.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if again, _ := c.SaveState(); !bytes.Equal(again, img) {
			t.Fatalf("save %d of an unchanged table differs:\n got %x\nwant %x", i, again, img)
		}
	}
	r := New(IP4(10, 0, 0, 2))
	if err := r.RestoreState(img); err != nil {
		t.Fatal(err)
	}
	if again, _ := r.SaveState(); !bytes.Equal(again, img) {
		t.Fatalf("save after restore differs:\n got %x\nwant %x", again, img)
	}
	if r.listens[80] != 2 || r.listens[81] != 8 || len(r.listens) != 2 {
		t.Fatalf("listens = %v, want 80->2 81->8", r.listens)
	}
	if id := r.conns[connKey{Remote: IP4(10, 0, 0, 101), RemotePort: 40002, LocalPort: 80}]; id != 5 || len(r.conns) != 2 {
		t.Fatalf("conns = %v, want two with 40002->5", r.conns)
	}
}

// TestRestoreTwiceFromOneImage mutates everything the first restore
// handed out; the second restore from the same image must not see it.
func TestRestoreTwiceFromOneImage(t *testing.T) {
	img, _ := (&Comp{socks: rtTable([]int{2, 3, 5, 7, 8}), nextSock: 8, isn: 4242}).SaveState()
	r := New(IP4(10, 0, 0, 2))
	if err := r.RestoreState(img); err != nil {
		t.Fatal(err)
	}
	r.socks[2].AcceptQ[0] = 99
	r.socks[2].Opts[1] = -1
	r.socks[3].m.st.RecvBuf[0] = 'X'
	r.socks[3].m.st.SndNxt++
	delete(r.socks, 7)
	r.nextSock++
	if err := r.RestoreState(img); err != nil {
		t.Fatal(err)
	}
	if again, _ := r.SaveState(); !bytes.Equal(again, img) {
		t.Fatalf("second restore from one image differs:\n got %x\nwant %x", again, img)
	}
}

// FuzzRuntimeStateDecode feeds arbitrary bytes to lwip's one decoder, the
// one a reboot runs on the checkpoint image and on the runtime blob: it
// may reject them but must never panic or size an allocation from a
// count the bytes cannot back.
func FuzzRuntimeStateDecode(f *testing.F) {
	var enc sockEncoder
	valid := append([]byte(nil), enc.encode(rtTable([]int{2, 3, 5, 7, 8}), 8, 4242, false)...)
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(append([]byte(nil), enc.encode(rtTable([]int{2, 3, 5, 7, 8}), 8, 4242, true)...))
	f.Add(append([]byte(nil), enc.encode(nil, 0, 100, false)...))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64)) // huge counts
	f.Fuzz(func(t *testing.T, p []byte) {
		_, _, socks, err := decodeSocks(p, nil)
		if err != nil {
			return
		}
		if 8+4+4+len(socks)*sockLen > len(p) {
			t.Fatalf("accepted %d sockets from %d bytes", len(socks), len(p))
		}
	})
}
