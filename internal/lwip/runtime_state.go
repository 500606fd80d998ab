package lwip

import (
	"encoding/binary"
	"errors"
	"sort"
)

// runtimeState is what replay cannot rebuild: live connections with
// their sequence/ACK numbers and buffered bytes, plus the allocation
// counters that keep post-reboot ids collision-free. Both lists are in
// ascending socket-id order, so one socket table has exactly one
// encoding and a reboot re-allocates the PCBs in one order.
type runtimeState struct {
	NextSock int
	ISN      uint32
	Conns    []savedConn
	AcceptQs []savedAcceptQ
}

type savedConn struct {
	ID       int
	Listener int
	Machine  MachineState
}

type savedAcceptQ struct {
	Listener int
	Queue    []int
}

// MachineState flag bits in the encoding.
const (
	rtPeerClosed = 1 << iota
	rtFinSent
	rtFinAcked
)

// Fixed-width sizes of the encoding: one connection without its RecvBuf
// bytes, one accept queue without its ids.
const (
	rtConnLen  = 8 + 8 + 4 + 4 + 2 + 2 + 1 + 4 + 4 + 1 + 4 + 4
	rtQueueLen = 8 + 4
)

var errRuntimeState = errors.New("lwip: malformed runtime state")

// rtEncoder encodes the runtime state of a socket table: big-endian
// fixed-width fields, counts and RecvBuf length-prefixed. It runs on
// every data-path call, so it reads the machines in place and owns the
// buffers it reuses: the returned blob is valid until the next encode.
type rtEncoder struct {
	buf []byte
	ids []int
}

func (e *rtEncoder) encode(socks map[int]*sock, nextSock int, isn uint32) []byte {
	ids, nconn := e.ids[:0], 0
	for id, s := range socks {
		switch {
		case s.State == sockConn && s.m != nil:
			nconn++
			ids = append(ids, id)
		case s.State == sockListening && len(s.AcceptQ) > 0:
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	e.ids = ids

	b := binary.BigEndian.AppendUint64(e.buf[:0], uint64(nextSock))
	b = binary.BigEndian.AppendUint32(b, isn)
	b = binary.BigEndian.AppendUint32(b, uint32(nconn))
	for _, id := range ids {
		s := socks[id]
		if s.State != sockConn {
			continue
		}
		m := &s.m.st
		b = binary.BigEndian.AppendUint64(b, uint64(id))
		b = binary.BigEndian.AppendUint64(b, uint64(s.Listener))
		b = binary.BigEndian.AppendUint32(b, uint32(m.Local))
		b = binary.BigEndian.AppendUint32(b, uint32(m.Remote))
		b = binary.BigEndian.AppendUint16(b, m.LocalPort)
		b = binary.BigEndian.AppendUint16(b, m.RemotePort)
		b = append(b, byte(m.State))
		b = binary.BigEndian.AppendUint32(b, m.SndNxt)
		b = binary.BigEndian.AppendUint32(b, m.RcvNxt)
		var flags byte
		if m.PeerClosed {
			flags |= rtPeerClosed
		}
		if m.FinSent {
			flags |= rtFinSent
		}
		if m.FinAcked {
			flags |= rtFinAcked
		}
		b = append(b, flags)
		b = binary.BigEndian.AppendUint32(b, m.FinSeq)
		b = binary.BigEndian.AppendUint32(b, uint32(len(m.RecvBuf)))
		b = append(b, m.RecvBuf...)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(ids)-nconn))
	for _, id := range ids {
		s := socks[id]
		if s.State != sockListening {
			continue
		}
		b = binary.BigEndian.AppendUint64(b, uint64(id))
		b = binary.BigEndian.AppendUint32(b, uint32(len(s.AcceptQ)))
		for _, q := range s.AcceptQ {
			b = binary.BigEndian.AppendUint64(b, uint64(q))
		}
	}
	e.buf = b
	return b
}

// rtReader consumes big-endian fields from a blob; a read past the end
// sets bad and yields zeros, so decoding checks bad once per record.
type rtReader struct {
	p   []byte
	bad bool
}

var rtZeros [8]byte

func (r *rtReader) take(n uint64) []byte {
	if n > uint64(len(r.p)) {
		r.p, r.bad = nil, true
		return rtZeros[:]
	}
	b := r.p[:n]
	r.p = r.p[n:]
	return b
}

func (r *rtReader) u8() byte    { return r.take(1)[0] }
func (r *rtReader) u16() uint16 { return binary.BigEndian.Uint16(r.take(2)) }
func (r *rtReader) u32() uint32 { return binary.BigEndian.Uint32(r.take(4)) }
func (r *rtReader) id() int     { return int(binary.BigEndian.Uint64(r.take(8))) }

// count reads a record count and rejects one the remaining bytes cannot
// hold at min bytes per record, bounding what the caller allocates.
func (r *rtReader) count(min uint64) int {
	n := uint64(r.u32())
	if n*min > uint64(len(r.p)) {
		r.p, r.bad = nil, true
		return 0
	}
	return int(n)
}

// decodeRuntimeState parses rtEncoder's output. The blob sits
// in host memory between a save and a reboot, so arbitrary bytes must
// come back as an error, never a panic or an oversized allocation; the
// result shares no memory with p.
func decodeRuntimeState(p []byte) (runtimeState, error) {
	r := rtReader{p: p}
	st := runtimeState{NextSock: r.id(), ISN: r.u32()}
	for n := r.count(rtConnLen); n > 0 && !r.bad; n-- {
		sc := savedConn{ID: r.id(), Listener: r.id()}
		m := &sc.Machine
		m.Local, m.Remote = Addr(r.u32()), Addr(r.u32())
		m.LocalPort, m.RemotePort = r.u16(), r.u16()
		m.State = ConnState(r.u8())
		m.SndNxt, m.RcvNxt = r.u32(), r.u32()
		flags := r.u8()
		m.PeerClosed, m.FinSent, m.FinAcked = flags&rtPeerClosed != 0, flags&rtFinSent != 0, flags&rtFinAcked != 0
		m.FinSeq = r.u32()
		if n := r.count(1); n > 0 {
			m.RecvBuf = append([]byte(nil), r.take(uint64(n))...)
		}
		st.Conns = append(st.Conns, sc)
	}
	for n := r.count(rtQueueLen); n > 0 && !r.bad; n-- {
		aq := savedAcceptQ{Listener: r.id()}
		aq.Queue = make([]int, r.count(8))
		for i := range aq.Queue {
			aq.Queue[i] = r.id()
		}
		st.AcceptQs = append(st.AcceptQs, aq)
	}
	if r.bad || len(r.p) != 0 {
		return runtimeState{}, errRuntimeState
	}
	return st, nil
}
