package lwip

import (
	"encoding/binary"

	"vampos/internal/mem"
	"vampos/internal/msg"
)

// sockLen is the fixed-width size of one socket record without its
// accept queue, opts and machine.
const sockLen = 8 + 1 + 2 + 8 + 8 + 8 + 4 + 4 + 1

// sockEncoder writes lwip's one socket-table encoding: the allocation
// counters, then one record per socket in ascending id order with its
// opts in key order, so one table has exactly one encoding and a reboot
// re-allocates PCBs in one order. The checkpoint image holds every
// socket, the runtime blob only those replay cannot rebuild. The runtime
// blob is written on every data-path call, so the encoder reads the
// machines in place and reuses its buffers: the returned blob is valid
// until the next encode.
type sockEncoder struct {
	buf       []byte
	ids, keys []int
}

// inRuntime reports whether s carries state replay cannot rebuild: a
// live connection, or a listener's queue of unaccepted ones.
func inRuntime(s *sock) bool {
	return s.State == sockConn && s.m != nil || s.State == sockListening && len(s.AcceptQ) > 0
}

func (e *sockEncoder) encode(socks map[int]*sock, nextSock int, isn uint32, all bool) []byte {
	be := binary.BigEndian
	b := be.AppendUint64(e.buf[:0], uint64(nextSock))
	b = be.AppendUint32(b, isn)
	at, n := len(b), 0
	b = be.AppendUint32(b, 0)
	e.ids = msg.SortedKeys(e.ids, socks)
	for _, id := range e.ids {
		s := socks[id]
		if !all && !inRuntime(s) {
			continue
		}
		n++
		b = be.AppendUint64(b, uint64(id))
		b = append(b, byte(s.State))
		b = be.AppendUint16(b, s.LocalPort)
		b = be.AppendUint64(b, uint64(s.Backlog))
		b = be.AppendUint64(b, uint64(s.Listener))
		b = be.AppendUint64(b, uint64(s.ctlBlock))
		b = be.AppendUint32(b, uint32(len(s.AcceptQ)))
		for _, q := range s.AcceptQ {
			b = be.AppendUint64(b, uint64(q))
		}
		e.keys = msg.SortedKeys(e.keys, s.Opts)
		b = be.AppendUint32(b, uint32(len(e.keys)))
		for _, k := range e.keys {
			b = be.AppendUint64(be.AppendUint64(b, uint64(k)), uint64(s.Opts[k]))
		}
		b = msg.AppendBool(b, s.m != nil)
		if s.m == nil {
			continue
		}
		m := &s.m.st
		b = be.AppendUint32(b, uint32(m.Local))
		b = be.AppendUint32(b, uint32(m.Remote))
		b = be.AppendUint16(b, m.LocalPort)
		b = be.AppendUint16(b, m.RemotePort)
		b = append(b, byte(m.State))
		b = be.AppendUint32(b, m.SndNxt)
		b = be.AppendUint32(b, m.RcvNxt)
		b = be.AppendUint32(b, m.FinSeq)
		b = msg.AppendBool(msg.AppendBool(msg.AppendBool(b, m.PeerClosed), m.FinSent), m.FinAcked)
		unread := s.m.unread()
		b = append(be.AppendUint32(b, uint32(len(unread))), unread...)
	}
	be.PutUint32(b[at:], uint32(n))
	e.buf = b
	return b
}

// decodeSocks parses sockEncoder's output into fresh sockets whose
// machines emit through emit. The result shares no memory with p, so
// one image can be restored many times.
func decodeSocks(p []byte, emit func(Segment)) (nextSock int, isn uint32, socks []*sock, err error) {
	r := msg.NewStateReader(p)
	nextSock, isn = r.Int(), r.U32()
	for n := r.Count(sockLen); n > 0; n-- {
		s := &sock{ID: r.Int(), State: sockState(r.U8()), LocalPort: r.U16(),
			Backlog: r.Int(), Listener: r.Int(), ctlBlock: mem.Addr(r.U64())}
		if nq := r.Count(8); nq > 0 {
			s.AcceptQ = make([]int, nq)
			for i := range s.AcceptQ {
				s.AcceptQ[i] = r.Int()
			}
		}
		nopt := r.Count(16)
		s.Opts = make(map[int]int, nopt)
		for ; nopt > 0; nopt-- {
			k := r.Int()
			s.Opts[k] = r.Int()
		}
		if r.Bool() {
			s.m = Restore(MachineState{
				Local: Addr(r.U32()), Remote: Addr(r.U32()),
				LocalPort: r.U16(), RemotePort: r.U16(), State: ConnState(r.U8()),
				SndNxt: r.U32(), RcvNxt: r.U32(), FinSeq: r.U32(),
				PeerClosed: r.Bool(), FinSent: r.Bool(), FinAcked: r.Bool(), RecvBuf: r.Bytes(),
			}, emit)
		}
		socks = append(socks, s)
	}
	if err := r.Done(); err != nil {
		return 0, 0, nil, err
	}
	return nextSock, isn, socks, nil
}
