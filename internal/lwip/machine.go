package lwip

import (
	"bytes"
	"fmt"
)

// ConnState is one endpoint's TCP connection state. The set is the
// standard machine minus the TIME_WAIT/timer states a lossless ordered
// wire makes unnecessary.
type ConnState uint8

// Connection states.
const (
	StateClosed ConnState = iota + 1
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateCloseWait // peer sent FIN, we have not closed
	StateFinSent   // we sent FIN, waiting for its ACK (and peer's FIN)
	StateDone      // fully closed or reset
)

func (s ConnState) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateSynSent:
		return "syn-sent"
	case StateSynRcvd:
		return "syn-rcvd"
	case StateEstablished:
		return "established"
	case StateCloseWait:
		return "close-wait"
	case StateFinSent:
		return "fin-sent"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("ConnState(%d)", uint8(s))
	}
}

// MachineState is the serialisable core of a Machine: exactly the
// "packet sequence numbers and ACK numbers … given at runtime" that the
// paper's VampOS saves for LWIP restoration, plus the delivered-but-
// unread bytes whose ACKs the peer will never resend.
type MachineState struct {
	Local      Addr
	Remote     Addr
	LocalPort  uint16
	RemotePort uint16
	State      ConnState
	SndNxt     uint32
	RcvNxt     uint32
	RecvBuf    []byte
	PeerClosed bool
	FinSent    bool
	FinAcked   bool
	FinSeq     uint32
}

// Machine is one TCP connection endpoint.
type Machine struct {
	st MachineState
	// head counts the read bytes at the front of st.RecvBuf. A delivery
	// drops them once they are as many as the unread ones, so the buffer
	// stays within twice the unread bytes and keeps its array.
	head  int
	reset bool
	out   func(Segment)
}

// NewActive creates a connecting endpoint and emits its SYN.
func NewActive(local Addr, lport uint16, remote Addr, rport uint16, isn uint32, out func(Segment)) *Machine {
	m := &Machine{
		st: MachineState{
			Local: local, LocalPort: lport, Remote: remote, RemotePort: rport,
			State: StateSynSent, SndNxt: isn + 1,
		},
		out: out,
	}
	m.send(Segment{Seq: isn, Flags: FlagSYN})
	return m
}

// NewPassive creates an accepting endpoint from a received SYN and emits
// the SYN-ACK.
func NewPassive(local Addr, lport uint16, isn uint32, syn Segment, out func(Segment)) (*Machine, error) {
	if syn.Flags&FlagSYN == 0 || syn.Flags&FlagACK != 0 {
		return nil, fmt.Errorf("lwip: passive open needs a plain SYN, got %v", syn.Flags)
	}
	m := &Machine{
		st: MachineState{
			Local: local, LocalPort: lport, Remote: syn.Src, RemotePort: syn.SrcPort,
			State: StateSynRcvd, SndNxt: isn + 1, RcvNxt: syn.Seq + 1,
		},
		out: out,
	}
	m.send(Segment{Seq: isn, Ack: m.st.RcvNxt, Flags: FlagSYN | FlagACK})
	return m, nil
}

// Restore rebuilds an endpoint from extracted runtime state: the LWIP
// reboot path. The restored machine continues mid-stream; if the numbers
// were wrong the peer's next segment would trigger an RST.
func Restore(st MachineState, out func(Segment)) *Machine {
	st.RecvBuf = append([]byte(nil), st.RecvBuf...)
	return &Machine{st: st, out: out}
}

// State returns the connection state.
func (m *Machine) State() ConnState { return m.st.State }

// Snapshot returns a copy of the serialisable machine state.
func (m *Machine) Snapshot() MachineState {
	st := m.st
	st.RecvBuf = append([]byte(nil), m.unread()...)
	return st
}

// unread returns the delivered bytes not yet read, in place.
func (m *Machine) unread() []byte { return m.st.RecvBuf[m.head:] }

// WasReset reports whether the connection ended by RST.
func (m *Machine) WasReset() bool { return m.reset }

// Readable returns the number of delivered, unread bytes.
func (m *Machine) Readable() int { return len(m.st.RecvBuf) - m.head }

// PeerClosed reports whether the peer half-closed (FIN received).
func (m *Machine) PeerClosed() bool { return m.st.PeerClosed }

// send stamps the endpoint addressing onto a segment and transmits it.
func (m *Machine) send(s Segment) {
	s.Src, s.SrcPort = m.st.Local, m.st.LocalPort
	s.Dst, s.DstPort = m.st.Remote, m.st.RemotePort
	m.out(s)
}

// abort sends an RST and kills the connection.
func (m *Machine) abort() {
	m.send(Segment{Seq: m.st.SndNxt, Flags: FlagRST})
	m.reset = true
	m.st.State = StateDone
}

// OnSegment processes one received segment.
func (m *Machine) OnSegment(s Segment) {
	if s.Flags&FlagRST != 0 {
		m.reset = true
		m.st.State = StateDone
		return
	}
	switch m.st.State {
	case StateSynSent:
		if s.Flags&(FlagSYN|FlagACK) != FlagSYN|FlagACK || s.Ack != m.st.SndNxt {
			m.abort()
			return
		}
		m.st.RcvNxt = s.Seq + 1
		m.st.State = StateEstablished
		m.send(Segment{Seq: m.st.SndNxt, Ack: m.st.RcvNxt, Flags: FlagACK})
	case StateSynRcvd:
		if s.Flags&FlagACK == 0 || s.Ack != m.st.SndNxt {
			m.abort()
			return
		}
		m.st.State = StateEstablished
		// The handshake ACK may carry data (our clients pipeline); fall
		// through to normal processing.
		m.onData(s)
	case StateEstablished, StateCloseWait, StateFinSent:
		m.onData(s)
	default:
		// Segment for a dead connection: tell the peer.
		m.abort()
	}
}

func (m *Machine) onData(s Segment) {
	if len(s.Payload) > 0 {
		if s.Seq != m.st.RcvNxt {
			// Out-of-sync peer — the signature of a stack that rebooted
			// without restoring its sequence numbers.
			m.abort()
			return
		}
		if m.head > 0 && m.head >= m.Readable() {
			m.st.RecvBuf, m.head = m.st.RecvBuf[:copy(m.st.RecvBuf, m.unread())], 0
		}
		m.st.RecvBuf = append(m.st.RecvBuf, s.Payload...)
		m.st.RcvNxt += uint32(len(s.Payload))
		m.send(Segment{Seq: m.st.SndNxt, Ack: m.st.RcvNxt, Flags: FlagACK})
	}
	if s.Flags&FlagACK != 0 && m.st.FinSent && !m.st.FinAcked && seqGE(s.Ack, m.st.FinSeq+1) {
		m.st.FinAcked = true
	}
	if s.Flags&FlagFIN != 0 {
		finSeq := s.Seq + uint32(len(s.Payload))
		if finSeq != m.st.RcvNxt {
			m.abort()
			return
		}
		m.st.RcvNxt++
		m.st.PeerClosed = true
		m.send(Segment{Seq: m.st.SndNxt, Ack: m.st.RcvNxt, Flags: FlagACK})
	}
	m.maybeFinish()
}

func (m *Machine) maybeFinish() {
	switch {
	case m.st.State == StateEstablished && m.st.PeerClosed:
		m.st.State = StateCloseWait
	case m.st.State == StateFinSent && m.st.FinAcked && m.st.PeerClosed:
		m.st.State = StateDone
	}
}

// seqGE compares sequence numbers modulo 2^32.
func seqGE(a, b uint32) bool { return int32(a-b) >= 0 }

// MSS is the maximum segment payload, sized so an encoded segment fits
// one virtio-net ring slot (an MTU stand-in).
const MSS = 1460

// Send transmits payload on an established (or half-closed-by-peer)
// connection, segmenting at MSS boundaries.
func (m *Machine) Send(payload []byte) error {
	if len(payload) == 0 {
		return nil
	}
	switch m.st.State {
	case StateEstablished, StateCloseWait:
	default:
		return fmt.Errorf("lwip: send in state %v", m.st.State)
	}
	for off := 0; off < len(payload); off += MSS {
		end := off + MSS
		if end > len(payload) {
			end = len(payload)
		}
		chunk := payload[off:end]
		m.send(Segment{Seq: m.st.SndNxt, Ack: m.st.RcvNxt, Flags: FlagACK | FlagPSH, Payload: chunk})
		m.st.SndNxt += uint32(len(chunk))
	}
	return nil
}

// Recv removes and returns up to n delivered bytes.
func (m *Machine) Recv(n int) []byte { return bytes.Clone(m.Consume(n)) }

// Consume is Recv in place: the bytes stay in the receive buffer, valid
// until the next segment is delivered.
func (m *Machine) Consume(n int) []byte {
	n = min(n, m.Readable())
	if n <= 0 {
		return nil
	}
	m.head += n
	return m.st.RecvBuf[m.head-n : m.head : m.head]
}

// Close half-closes our side with a FIN.
func (m *Machine) Close() {
	switch m.st.State {
	case StateEstablished, StateCloseWait, StateSynRcvd:
		m.send(Segment{Seq: m.st.SndNxt, Ack: m.st.RcvNxt, Flags: FlagFIN | FlagACK})
		m.st.FinSent = true
		m.st.FinSeq = m.st.SndNxt
		m.st.SndNxt++
		m.st.State = StateFinSent
		m.maybeFinish()
	case StateSynSent, StateClosed:
		m.st.State = StateDone
	}
}
