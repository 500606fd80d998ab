// Package lwip implements the network-stack component of the VampOS
// model: a TCP state machine over a simulated reliable wire, the socket
// table the VFS component binds file descriptors to, and — critically for
// the paper's reproduction — the runtime-state extraction of live TCP
// sequence/ACK numbers that log replay alone cannot regenerate (§V-B).
//
// The wire format is deliberately small: the virtual ethernet is a
// lossless ordered queue, so the machine tracks sequence and ACK numbers
// faithfully (a rebooted stack that comes back with wrong numbers is
// RST-ed by its peer, exactly the failure the paper's ad-hoc LWIP state
// saving prevents) but needs no retransmission or reordering machinery.
package lwip

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
)

// Flags is the TCP segment flag set.
type Flags uint8

// TCP flags.
const (
	FlagSYN Flags = 1 << iota
	FlagACK
	FlagFIN
	FlagRST
	FlagPSH
)

func (f Flags) String() string {
	s := ""
	add := func(name string, bit Flags) {
		if f&bit != 0 {
			if s != "" {
				s += "|"
			}
			s += name
		}
	}
	add("SYN", FlagSYN)
	add("ACK", FlagACK)
	add("FIN", FlagFIN)
	add("RST", FlagRST)
	add("PSH", FlagPSH)
	if s == "" {
		return "-"
	}
	return s
}

// Addr is an IPv4-style address in host byte order.
type Addr uint32

// IP4 builds an Addr from dotted-quad components.
func IP4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Segment is one TCP-lite segment as carried in an ethernet frame.
type Segment struct {
	Src     Addr
	Dst     Addr
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   Flags
	Payload []byte
}

func (s Segment) String() string {
	return fmt.Sprintf("%v:%d->%v:%d seq=%d ack=%d %v len=%d",
		s.Src, s.SrcPort, s.Dst, s.DstPort, s.Seq, s.Ack, s.Flags, len(s.Payload))
}

// segment header: src(4) dst(4) sport(2) dport(2) seq(4) ack(4) flags(1) paylen(4)
const segHeaderLen = 4 + 4 + 2 + 2 + 4 + 4 + 1 + 4

// EncodeSegment serialises a segment into fresh frame bytes.
func EncodeSegment(s Segment) []byte { return AppendSegment(nil, s) }

// AppendSegment appends the frame bytes of s to dst, growing it at most
// once, and returns the extended slice: a sender that keeps its frame
// buffer encodes into buf[:0] and allocates nothing once it is big enough.
func AppendSegment(dst []byte, s Segment) []byte {
	n := len(dst)
	dst = slices.Grow(dst, segHeaderLen+len(s.Payload))[:n+segHeaderLen]
	p := dst[n:]
	binary.BigEndian.PutUint32(p[0:], uint32(s.Src))
	binary.BigEndian.PutUint32(p[4:], uint32(s.Dst))
	binary.BigEndian.PutUint16(p[8:], s.SrcPort)
	binary.BigEndian.PutUint16(p[10:], s.DstPort)
	binary.BigEndian.PutUint32(p[12:], s.Seq)
	binary.BigEndian.PutUint32(p[16:], s.Ack)
	p[20] = byte(s.Flags)
	binary.BigEndian.PutUint32(p[21:], uint32(len(s.Payload)))
	return append(dst, s.Payload...)
}

// DecodeSegment parses frame bytes produced by EncodeSegment.
func DecodeSegment(p []byte) (Segment, error) {
	s, err := parseSegment(p)
	if len(s.Payload) > 0 {
		s.Payload = bytes.Clone(s.Payload)
	}
	return s, err
}

// parseSegment is DecodeSegment with the payload left in place in p.
func parseSegment(p []byte) (Segment, error) {
	if len(p) < segHeaderLen {
		return Segment{}, fmt.Errorf("lwip: segment too short: %d bytes", len(p))
	}
	n := binary.BigEndian.Uint32(p[21:])
	if uint32(len(p)-segHeaderLen) < n {
		return Segment{}, fmt.Errorf("lwip: segment payload truncated: header says %d, have %d", n, len(p)-segHeaderLen)
	}
	s := Segment{
		Src:     Addr(binary.BigEndian.Uint32(p[0:])),
		Dst:     Addr(binary.BigEndian.Uint32(p[4:])),
		SrcPort: binary.BigEndian.Uint16(p[8:]),
		DstPort: binary.BigEndian.Uint16(p[10:]),
		Seq:     binary.BigEndian.Uint32(p[12:]),
		Ack:     binary.BigEndian.Uint32(p[16:]),
		Flags:   Flags(p[20]),
	}
	if n > 0 {
		s.Payload = p[segHeaderLen : segHeaderLen+int(n)]
	}
	return s, nil
}
