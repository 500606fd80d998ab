package host

import (
	"fmt"
	"time"

	"vampos/internal/lwip"
	"vampos/internal/sched"
)

// Peer is one external machine on the virtual network: workload clients
// (siege threads, redis-benchmark threads) run on top of it, and it can
// also listen so the guest can act as the client. A peer's TCP endpoints
// use the same connection machine as the guest stack, so both ends track
// sequence numbers honestly.
type Peer struct {
	h         *Host
	ip        lwip.Addr
	conns     map[uint16]*PeerConn
	listeners map[uint16]*PeerListener
	nextPort  uint16
	isn       uint32
}

// NewPeer registers a new external machine with a fresh address.
func (h *Host) NewPeer() *Peer {
	h.nextPeer++
	p := &Peer{
		h:         h,
		ip:        lwip.IP4(10, 0, 0, 100+h.nextPeer),
		conns:     make(map[uint16]*PeerConn),
		listeners: make(map[uint16]*PeerListener),
		nextPort:  40000,
		isn:       7000,
	}
	h.peers[p.ip] = p
	return p
}

// IP returns the peer's address.
func (p *Peer) IP() lwip.Addr { return p.ip }

// deliver routes a guest-originated segment to the right connection,
// or to a listener when it is a fresh SYN.
func (p *Peer) deliver(seg lwip.Segment) {
	if conn, ok := p.conns[seg.DstPort]; ok {
		conn.m.OnSegment(seg)
		if w := conn.waiter; w != nil {
			w.Wake()
		}
		return
	}
	if seg.Flags&lwip.FlagSYN != 0 && seg.Flags&lwip.FlagACK == 0 {
		if l, ok := p.listeners[seg.DstPort]; ok {
			l.onSYN(seg)
			return
		}
	}
	p.h.FramesDropped++
}

// PeerListener accepts guest-initiated connections on a peer port, so
// experiments can run host-side servers the guest dials into.
type PeerListener struct {
	p       *Peer
	port    uint16
	backlog []*PeerConn
	waiter  *sched.Thread
}

// Listen opens a listening port on the peer.
func (p *Peer) Listen(port uint16) (*PeerListener, error) {
	if _, dup := p.listeners[port]; dup {
		return nil, fmt.Errorf("host: peer port %d already listening", port)
	}
	l := &PeerListener{p: p, port: port}
	p.listeners[port] = l
	return l, nil
}

func (l *PeerListener) onSYN(seg lwip.Segment) {
	l.p.isn += 777
	conn := &PeerConn{p: l.p, port: l.port}
	m, err := lwip.NewPassive(l.p.ip, l.port, l.p.isn, seg, conn.transmit)
	if err != nil {
		return
	}
	conn.m = m
	// Demux for established traffic keys on the local port; a listener
	// supports one active guest connection at a time in this model
	// (guest source ports are distinct per connection, but the peer's
	// conns map is keyed by local port — adequate for the workloads).
	l.p.conns[l.port] = conn
	l.backlog = append(l.backlog, conn)
	if l.waiter != nil {
		l.waiter.Wake()
	}
}

// Accept waits for a guest connection.
func (l *PeerListener) Accept(t *sched.Thread, timeout time.Duration) (*PeerConn, error) {
	deadline := l.p.h.clk.Elapsed() + timeout
	for len(l.backlog) == 0 {
		if l.p.h.clk.Elapsed() >= deadline {
			return nil, ErrTimeout
		}
		l.waiter = t
		t.Sleep(20 * time.Microsecond)
	}
	l.waiter = nil
	conn := l.backlog[0]
	l.backlog = l.backlog[1:]
	return conn, nil
}

// Close stops listening.
func (l *PeerListener) Close() {
	delete(l.p.listeners, l.port)
}

// PeerConn is one client connection to the guest.
type PeerConn struct {
	p      *Peer
	port   uint16
	m      *lwip.Machine
	waiter *sched.Thread // thread parked in Dial/Recv, woken on delivery
	outErr error         // first transmit failure, surfaced to callers
}

// ErrTimeout reports a deadline expiry in Dial or Recv.
var ErrTimeout = fmt.Errorf("host: operation timed out")

// Dial opens a TCP connection to the guest on the given port. It must be
// called from a simulated thread, which parks until the handshake
// completes or the timeout expires.
func (p *Peer) Dial(t *sched.Thread, guestPort uint16, timeout time.Duration) (*PeerConn, error) {
	p.nextPort++
	p.isn += 1009
	conn := &PeerConn{p: p, port: p.nextPort}
	p.conns[conn.port] = conn
	conn.m = lwip.NewActive(p.ip, conn.port, GuestIP, guestPort, p.isn, conn.transmit)
	deadline := p.h.clk.Elapsed() + timeout
	for conn.m.State() != lwip.StateEstablished {
		if conn.m.State() == lwip.StateDone || conn.m.WasReset() {
			delete(p.conns, conn.port)
			return nil, fmt.Errorf("host: dial %v:%d: connection refused/reset", GuestIP, guestPort)
		}
		if conn.outErr != nil {
			delete(p.conns, conn.port)
			return nil, conn.outErr
		}
		if p.h.clk.Elapsed() >= deadline {
			delete(p.conns, conn.port)
			return nil, fmt.Errorf("host: dial %v:%d: %w", GuestIP, guestPort, ErrTimeout)
		}
		conn.waiter = t
		t.Sleep(20 * time.Microsecond)
	}
	conn.waiter = nil
	return conn, nil
}

// transmit is the machine's segment output: it runs on whichever
// simulated thread drove the machine (workload thread or switch thread).
func (c *PeerConn) transmit(seg lwip.Segment) {
	if err := c.p.h.sendToGuest(seg); err != nil && c.outErr == nil {
		c.outErr = err
	}
}

// Send transmits data to the guest. Must run on a simulated thread.
func (c *PeerConn) Send(t *sched.Thread, data []byte) error {
	_ = t // kept for API symmetry with Recv; transmission uses the current thread
	if err := c.m.Send(data); err != nil {
		return err
	}
	return c.outErr
}

// Recv waits until at least one byte is readable (or the connection
// closes/resets or the timeout expires) and returns up to n bytes.
func (c *PeerConn) Recv(t *sched.Thread, n int, timeout time.Duration) ([]byte, error) {
	deadline := c.p.h.clk.Elapsed() + timeout
	for c.m.Readable() == 0 {
		if c.m.WasReset() {
			return nil, fmt.Errorf("host: connection reset by guest")
		}
		if c.m.PeerClosed() {
			return nil, fmt.Errorf("host: connection closed by guest")
		}
		if c.p.h.clk.Elapsed() >= deadline {
			return nil, ErrTimeout
		}
		c.waiter = t
		t.Sleep(20 * time.Microsecond)
	}
	c.waiter = nil
	return c.m.Recv(n), nil
}

// RecvExactly reads exactly n bytes or fails.
func (c *PeerConn) RecvExactly(t *sched.Thread, n int, timeout time.Duration) ([]byte, error) {
	out := make([]byte, 0, n)
	for len(out) < n {
		chunk, err := c.Recv(t, n-len(out), timeout)
		if err != nil {
			return out, err
		}
		out = append(out, chunk...)
	}
	return out, nil
}

// RecvLine reads through the first '\n' (inclusive) or fails.
func (c *PeerConn) RecvLine(t *sched.Thread, timeout time.Duration) ([]byte, error) {
	var out []byte
	for {
		chunk, err := c.Recv(t, 1, timeout)
		if err != nil {
			return out, err
		}
		out = append(out, chunk...)
		if chunk[0] == '\n' {
			return out, nil
		}
	}
}

// Close half-closes the connection and deregisters it.
func (c *PeerConn) Close(t *sched.Thread) {
	_ = t
	c.m.Close()
	delete(c.p.conns, c.port)
}

// State exposes the connection state for assertions.
func (c *PeerConn) State() lwip.ConnState { return c.m.State() }
