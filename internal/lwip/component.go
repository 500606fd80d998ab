package lwip

import (
	"encoding/binary"
	"fmt"

	"vampos/internal/core"
	"vampos/internal/mem"
	"vampos/internal/msg"
	"vampos/internal/sched"
)

// Socket kinds/states at the component level.
type sockState uint8

const (
	sockFresh sockState = iota + 1
	sockBound
	sockListening
	sockConn
	sockClosed
)

// connKey demultiplexes incoming segments to connections.
type connKey struct {
	Remote     Addr
	RemotePort uint16
	LocalPort  uint16
}

// sock is one socket-table entry.
type sock struct {
	ID        int
	State     sockState
	LocalPort uint16
	Backlog   int
	AcceptQ   []int // established, not-yet-accepted connection socks
	Listener  int   // owning listener for queued conns (0 none)
	m         *Machine
	ctlBlock  mem.Addr // arena allocation representing the PCB
	Opts      map[int]int
}

// Comp is the LWIP component: the socket layer plus the per-connection
// TCP machines. Stateful; reboots restore via checkpoint + log replay
// for the socket/bind/listen structure and via extracted runtime state
// (sequence/ACK numbers, live connections) for everything the log
// cannot regenerate — the paper's ad-hoc LWIP optimisation (§V-B).
type Comp struct {
	ip    Addr
	socks map[int]*sock
	//vampos:allow statecomplete -- derived port index: RestoreState rebuilds it from the saved socks table's sockListening entries
	listens map[uint16]int // port -> listening sock
	//vampos:allow statecomplete -- derived demux index: RestoreState rebuilds it from each saved connection's MachineState endpoints
	conns    map[connKey]int
	nextSock int
	isn      uint32
	rt       sockEncoder

	// staticBase is the component's data/bss analogue: a region Init
	// writes into the arena so the post-init checkpoint has the resident
	// image a snapshot restore actually copies.
	staticBase mem.Addr

	// evictedAcceptQ stashes a listener's accept queue across a session
	// microreboot: eviction parks it here, the replayed listen re-attaches
	// it. Never checkpointed — it only lives inside one microreboot.
	//vampos:allow statecomplete -- transient microreboot stash: alive only between EvictSession and the replayed listen; checkpointing it would resurrect a consumed queue
	evictedAcceptQ map[int][]int

	// curCtxs maps each simulated thread to its in-flight handler
	// context; the machines' segment output runs through it. In
	// message-passing mode only the component worker appears here, but
	// vanilla mode runs handlers on every caller thread concurrently.
	//vampos:allow statecomplete -- per-call in-flight handler contexts: repopulated on every handler entry, meaningless across a reboot
	curCtxs map[*sched.Thread]*core.Ctx
	// activeTh is the thread of the most recent enter. Inside a buffered
	// shard round Scheduler.Current is unset (the conductor is parked), and
	// in message-passing mode the component worker is the only thread that
	// ever runs handlers here, so the last-entered thread is the right one.
	//vampos:allow statecomplete -- in-flight handler bookkeeping, meaningless across a reboot
	activeTh *sched.Thread
	sch      *sched.Scheduler
	// txFrame is the buffer emit encodes each outbound segment into:
	// Ctx.Call copies its arguments before anything parks.
	//vampos:allow statecomplete -- transmit scratch: holds no segment past the emit that encoded it
	txFrame []byte

	// Stats
	//vampos:allow statecomplete -- wire counters are diagnostics, not recovery state: a rebooted stack restarts its counts like a rebooted kernel would
	SegsIn, SegsOut uint64
	//vampos:allow statecomplete -- diagnostic counter, not recovery state: RST counts restart with the stack
	Resets uint64
}

// New creates the LWIP component with the guest address.
func New(ip Addr) *Comp {
	return &Comp{ip: ip}
}

// Describe implements core.Component. LWIP uses checkpoint-based
// initialization: its Init allocates control state whose reconstruction
// must not disturb NETDEV/VIRTIO (paper §V-E applies it to VFS and LWIP).
func (c *Comp) Describe() core.Descriptor {
	return core.Descriptor{
		Name: "lwip", Stateful: true, Checkpoint: true,
		HeapPages: 1024, DomainPages: 256,
		Deps: []string{"netdev"},
	}
}

// staticPages is the size of LWIP's static data region: the stack's
// compiled-in tables (PCB pools, ARP cache, timer wheels) that occupy
// data/bss in the real unikernel and dominate the snapshot image. It is
// exactly half the arena so the remaining free space is one contiguous
// buddy block: the steady-state heap reports zero external
// fragmentation, as a fixed data/bss segment beside a heap would.
const staticPages = 512

// Init implements core.Component.
func (c *Comp) Init(ctx *core.Ctx) error {
	c.socks = make(map[int]*sock)
	c.listens = make(map[uint16]int)
	c.conns = make(map[connKey]int)
	c.nextSock = 0
	c.isn = 100
	if c.curCtxs == nil {
		c.curCtxs = make(map[*sched.Thread]*core.Ctx)
	}
	c.sch = ctx.Runtime().Scheduler()
	return c.writeStatic(ctx)
}

// writeStatic materialises the stack's static data region in the arena.
// Without it the component would hold all state in host structs, the
// post-init snapshot would have zero resident pages, and checkpoint
// restores would be free — breaking the Fig. 6 cost model.
func (c *Comp) writeStatic(ctx *core.Ctx) error {
	addr, err := ctx.Heap().Alloc(staticPages * mem.PageSize)
	if err != nil {
		return err
	}
	c.staticBase = addr
	seed := make([]byte, staticPages*mem.PageSize)
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	if err := ctx.Mem().Write(addr, seed); err != nil {
		return err
	}
	return nil
}

// Exports implements core.Component. Function names follow the paper's
// Table II where it names them.
func (c *Comp) Exports() map[string]core.Handler {
	return map[string]core.Handler{
		"socket":         c.socket,
		"bind":           c.bind,
		"listen":         c.listen,
		"connect":        c.connect,
		"accept":         c.accept,
		"send":           c.send,
		"recv":           c.recv,
		"shutdown":       c.shutdown,
		"sock_net_close": c.sockClose,
		"getsockopt":     c.getsockopt,
		"setsockopt":     c.setsockopt,
		"sock_net_ioctl": c.ioctl,
		"rx_pump":        c.rxPump,
		"conn_state":     c.connState,
	}
}

// sockSessions is the namespace of LWIP sessions: one per socket id.
var sockSessions = msg.NewNamespace("sock")

// LogPolicies implements core.LogPolicyProvider: the Table II row for
// LWIP. Every per-socket call names its session, and a fault in it, by
// the socket id in argument zero; socket names its session by the id it
// returns. Data-path functions (send/recv/accept/rx_pump) are NOT
// logged — their effects live in the extracted runtime state — but a
// fault in any of them except rx_pump, which touches every connection
// at once, is attributable.
func (c *Comp) LogPolicies() (*msg.Namespace, map[string]core.LogPolicy) {
	perSock := core.LogPolicy{Class: msg.ClassDurable, Session: core.Arg0, FaultByArg0: true}
	attributable := core.LogPolicy{FaultByArg0: true}
	return sockSessions, map[string]core.LogPolicy{
		"socket":         {Class: msg.ClassOpener, Session: core.Ret0},
		"bind":           perSock,
		"listen":         perSock,
		"connect":        perSock,
		"getsockopt":     perSock,
		"setsockopt":     perSock,
		"shutdown":       perSock,
		"sock_net_ioctl": perSock,
		"sock_net_close": {Class: msg.ClassCanceler, Session: core.Arg0, FaultByArg0: true},
		"accept":         attributable,
		"recv":           attributable,
		"send":           attributable,
		"conn_state":     attributable,
	}
}

// saveRuntime extracts and stores the runtime state (paper §V-B: "tracks
// and saves specific data every time their updates are directly used").
func (c *Comp) saveRuntime(ctx *core.Ctx) {
	if ctx.InReplay() {
		return
	}
	ctx.SaveRuntimeState(c.rt.encode(c.socks, c.nextSock, c.isn, false))
}

// InstallRuntimeState implements core.RuntimeKeeper: after checkpoint
// restore and log replay, re-create the live connections from the saved
// sequence/ACK numbers.
func (c *Comp) InstallRuntimeState(ctx *core.Ctx, blob []byte) error {
	nextSock, isn, socks, err := decodeSocks(blob, c.emit)
	if err != nil {
		return err
	}
	c.nextSock, c.isn = nextSock, isn
	for _, r := range socks {
		if r.m == nil { // a listener: its accept queue is the runtime state
			if l, ok := c.socks[r.ID]; ok && r.State == sockListening {
				l.AcceptQ = r.AcceptQ
			}
			continue
		}
		st := &r.m.st
		s := &sock{ID: r.ID, State: sockConn, Listener: r.Listener, m: r.m, LocalPort: st.LocalPort, Opts: map[int]int{}}
		if old := c.socks[r.ID]; old != nil && old.ctlBlock != 0 {
			// A quiescent-point checkpoint already restored this socket's
			// PCB allocation; reuse it instead of leaking it.
			s.ctlBlock = old.ctlBlock
			c.writePCB(ctx, s)
		} else {
			c.allocPCB(ctx, s)
		}
		c.socks[r.ID] = s
		c.conns[connKey{Remote: st.Remote, RemotePort: st.RemotePort, LocalPort: st.LocalPort}] = r.ID
	}
	return nil
}

// allocPCB reserves an arena block for the socket's protocol control
// block, making socket churn visible to the allocator (aging substrate)
// and the PCB contents visible to dirty-page tracking.
func (c *Comp) allocPCB(ctx *core.Ctx, s *sock) {
	addr, err := ctx.Heap().Alloc(256)
	if err != nil {
		return
	}
	s.ctlBlock = addr
	c.writePCB(ctx, s)
}

// writePCB syncs the socket's identity into its PCB block, dirtying the
// page for incremental snapshots.
func (c *Comp) writePCB(ctx *core.Ctx, s *sock) {
	pcb := make([]byte, 256)
	binary.LittleEndian.PutUint64(pcb[0:], uint64(s.ID))
	binary.LittleEndian.PutUint64(pcb[8:], uint64(s.LocalPort))
	binary.LittleEndian.PutUint64(pcb[16:], uint64(s.State))
	_ = ctx.Mem().Write(s.ctlBlock, pcb)
}

func (c *Comp) freePCB(ctx *core.Ctx, s *sock) {
	if s.ctlBlock != 0 {
		// Best-effort: after a checkpoint restore the allocator was
		// rebuilt, and stale blocks simply no longer exist.
		_ = ctx.Heap().Free(s.ctlBlock)
		s.ctlBlock = 0
	}
}

// emit transmits one segment through NETDEV on the context of the
// handler currently running on this thread. During encapsulated replay
// the call is fed from the log, so no segment actually leaves the
// component.
func (c *Comp) emit(seg Segment) {
	var ctx *core.Ctx
	if c.sch != nil {
		ctx = c.curCtxs[c.sch.Current()]
	}
	if ctx == nil && c.activeTh != nil {
		// Round slice: no global current thread. The worker owning this
		// slice is the last thread that entered a handler.
		ctx = c.curCtxs[c.activeTh]
	}
	if ctx == nil {
		panic("lwip: segment emitted outside a handler invocation")
	}
	c.SegsOut++
	c.txFrame = AppendSegment(c.txFrame[:0], seg)
	if _, err := ctx.Call("netdev", "tx", c.txFrame); err != nil {
		// Transmission failure on the lossless virtual wire is a device
		// failure (ring desync / reboot window); the segment is lost and
		// the peer will observe it as the connection stalling.
		c.Resets++
	}
}

// enter/exit bracket every handler to bind the machine output context
// for the executing thread.
func (c *Comp) enter(ctx *core.Ctx) func() {
	th := ctx.Thread()
	prev := c.curCtxs[th]
	prevActive := c.activeTh
	c.curCtxs[th] = ctx
	c.activeTh = th
	return func() {
		if prev == nil {
			delete(c.curCtxs, th)
		} else {
			c.curCtxs[th] = prev
		}
		c.activeTh = prevActive
	}
}

func (c *Comp) getSock(args msg.Encoded, idx int) (*sock, error) {
	id, err := args.Int(idx)
	if err != nil {
		return nil, err
	}
	s, ok := c.socks[id]
	if !ok || s.State == sockClosed {
		return nil, core.EBADF
	}
	return s, nil
}

func (c *Comp) socket(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	defer c.enter(ctx)()
	// During replay the logged result dictates the id: a session
	// microreboot replays onto the live table, where nextSock has long
	// moved past the original allocation.
	id := 0
	if rets, ok := ctx.ReplayRets(); ok {
		if rid, err := rets.Int(0); err == nil && rid > 0 {
			id = rid
		}
	}
	if id == 0 {
		c.nextSock++
		id = c.nextSock
	} else if id > c.nextSock {
		c.nextSock = id
	}
	s := &sock{ID: id, State: sockFresh, Opts: map[int]int{}}
	c.allocPCB(ctx, s)
	c.socks[s.ID] = s
	c.saveRuntime(ctx)
	return ctx.Ret(s.ID)
}

func (c *Comp) bind(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	defer c.enter(ctx)()
	s, err := c.getSock(args, 0)
	if err != nil {
		return nil, err
	}
	port, err := args.Int(1)
	if err != nil {
		return nil, err
	}
	if port <= 0 || port > 65535 {
		return nil, core.EINVAL
	}
	if other, used := c.listens[uint16(port)]; used && other != s.ID {
		return nil, core.EADDRINUSE
	}
	s.LocalPort = uint16(port)
	s.State = sockBound
	return nil, nil
}

func (c *Comp) listen(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	defer c.enter(ctx)()
	s, err := c.getSock(args, 0)
	if err != nil {
		return nil, err
	}
	if s.State != sockBound {
		return nil, core.EINVAL
	}
	backlog, err := args.Int(1)
	if err != nil {
		return nil, err
	}
	if backlog <= 0 {
		backlog = 16
	}
	s.Backlog = backlog
	s.State = sockListening
	c.listens[s.LocalPort] = s.ID
	// A session microreboot of a listener stashes its accept queue at
	// eviction; the replayed listen re-attaches it, so connections that
	// arrived before the fault are never dropped.
	if q, ok := c.evictedAcceptQ[s.ID]; ok {
		s.AcceptQ = q
		delete(c.evictedAcceptQ, s.ID)
	}
	return nil, nil
}

// connect starts an active open; completion is observed via conn_state.
func (c *Comp) connect(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	defer c.enter(ctx)()
	s, err := c.getSock(args, 0)
	if err != nil {
		return nil, err
	}
	raddrU, err := args.Uint64(1)
	if err != nil {
		return nil, err
	}
	rport, err := args.Int(2)
	if err != nil {
		return nil, err
	}
	if s.State != sockFresh && s.State != sockBound {
		return nil, core.EINVAL
	}
	if s.LocalPort == 0 {
		s.LocalPort = uint16(30000 + s.ID)
	}
	c.isn += 64013
	s.m = NewActive(c.ip, s.LocalPort, Addr(raddrU), uint16(rport), c.isn, c.emit)
	s.State = sockConn
	c.conns[connKey{Remote: Addr(raddrU), RemotePort: uint16(rport), LocalPort: s.LocalPort}] = s.ID
	c.saveRuntime(ctx)
	return nil, nil
}

// accept pops one established connection; EAGAIN when none is ready.
func (c *Comp) accept(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	defer c.enter(ctx)()
	s, err := c.getSock(args, 0)
	if err != nil {
		return nil, err
	}
	if s.State != sockListening {
		return nil, core.EINVAL
	}
	kept := s.AcceptQ[:0]
	var picked *sock
	for _, id := range s.AcceptQ {
		conn, ok := c.socks[id]
		if !ok || conn.m == nil {
			continue // already destroyed
		}
		switch {
		case picked == nil && (conn.m.State() == StateEstablished || conn.m.Readable() > 0):
			picked = conn
		case conn.m.State() == StateDone || conn.m.WasReset():
			// Died before it was ever accepted.
			c.destroySock(ctx, conn)
		default:
			// Handshake still in flight: keep it queued.
			kept = append(kept, id)
		}
	}
	s.AcceptQ = kept
	if picked == nil {
		return nil, core.EAGAIN
	}
	c.saveRuntime(ctx)
	st := picked.m.Snapshot()
	return ctx.Ret(picked.ID, uint64(st.Remote), int(st.RemotePort))
}

// send transmits on a connected socket.
func (c *Comp) send(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	defer c.enter(ctx)()
	s, err := c.getSock(args, 0)
	if err != nil {
		return nil, err
	}
	data, err := ctx.Bytes(args, 1)
	if err != nil {
		return nil, err
	}
	if s.State != sockConn || s.m == nil {
		return nil, core.ENOTCONN
	}
	switch s.m.State() {
	case StateEstablished, StateCloseWait:
	case StateSynSent, StateSynRcvd:
		return nil, core.EAGAIN
	default:
		if s.m.WasReset() {
			return nil, core.ECONNRESET
		}
		return nil, core.EPIPE
	}
	if err := s.m.Send(data); err != nil {
		return nil, core.EPIPE
	}
	c.saveRuntime(ctx)
	return ctx.Ret(len(data))
}

// recv returns up to n buffered bytes; (empty, eof=true) at stream end.
func (c *Comp) recv(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	defer c.enter(ctx)()
	s, err := c.getSock(args, 0)
	if err != nil {
		return nil, err
	}
	n, err := args.Int(1)
	if err != nil {
		return nil, err
	}
	if s.State != sockConn || s.m == nil {
		return nil, core.ENOTCONN
	}
	if s.m.Readable() == 0 {
		if s.m.WasReset() {
			return nil, core.ECONNRESET
		}
		if s.m.PeerClosed() || s.m.State() == StateDone {
			return ctx.Ret([]byte{}, true) // EOF
		}
		return nil, core.EAGAIN
	}
	data := s.m.Consume(n)
	c.saveRuntime(ctx)
	return ctx.Ret(data, false)
}

func (c *Comp) shutdown(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	defer c.enter(ctx)()
	s, err := c.getSock(args, 0)
	if err != nil {
		return nil, err
	}
	if s.m != nil {
		s.m.Close()
		c.saveRuntime(ctx)
	}
	return nil, nil
}

func (c *Comp) sockClose(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	defer c.enter(ctx)()
	s, err := c.getSock(args, 0)
	if err != nil {
		return nil, err
	}
	if s.m != nil && s.m.State() != StateDone {
		s.m.Close()
	}
	c.destroySock(ctx, s)
	c.saveRuntime(ctx)
	return nil, nil
}

func (c *Comp) destroySock(ctx *core.Ctx, s *sock) {
	if s.State == sockListening {
		delete(c.listens, s.LocalPort)
	}
	if s.m != nil {
		st := s.m.Snapshot()
		delete(c.conns, connKey{Remote: st.Remote, RemotePort: st.RemotePort, LocalPort: st.LocalPort})
	}
	c.freePCB(ctx, s)
	s.State = sockClosed
	delete(c.socks, s.ID)
}

func (c *Comp) getsockopt(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	s, err := c.getSock(args, 0)
	if err != nil {
		return nil, err
	}
	opt, err := args.Int(1)
	if err != nil {
		return nil, err
	}
	return ctx.Ret(s.Opts[opt])
}

func (c *Comp) setsockopt(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	s, err := c.getSock(args, 0)
	if err != nil {
		return nil, err
	}
	opt, err := args.Int(1)
	if err != nil {
		return nil, err
	}
	val, err := args.Int(2)
	if err != nil {
		return nil, err
	}
	s.Opts[opt] = val
	return nil, nil
}

func (c *Comp) ioctl(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	s, err := c.getSock(args, 0)
	if err != nil {
		return nil, err
	}
	// FIONREAD-style: report readable bytes.
	n := 0
	if s.m != nil {
		n = s.m.Readable()
	}
	return ctx.Ret(n)
}

// connState reports the machine state for connect() completion polling.
func (c *Comp) connState(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	s, err := c.getSock(args, 0)
	if err != nil {
		return nil, err
	}
	if s.m == nil {
		return ctx.Ret(int(StateClosed))
	}
	return ctx.Ret(int(s.m.State()))
}

// rxPump drains the receive ring through NETDEV and demultiplexes each
// segment. It is injected (fire-and-forget) by the virtio RX interrupt.
func (c *Comp) rxPump(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	defer c.enter(ctx)()
	changed := false
	for {
		rets, err := ctx.Call("netdev", "rx_pop")
		if err != nil {
			break // EAGAIN: ring drained (or device gone)
		}
		frame, err := ctx.Bytes(rets, 0)
		if err != nil {
			break
		}
		// The payload stays in the frame: demux is done with it (onData
		// copies it into the receive buffer) before anything yields.
		seg, err := parseSegment(frame)
		if err != nil {
			continue
		}
		c.SegsIn++
		c.demux(ctx, seg)
		changed = true
	}
	if changed {
		c.saveRuntime(ctx)
	}
	return nil, nil
}

func (c *Comp) demux(ctx *core.Ctx, seg Segment) {
	key := connKey{Remote: seg.Src, RemotePort: seg.SrcPort, LocalPort: seg.DstPort}
	if id, ok := c.conns[key]; ok {
		if s := c.socks[id]; s != nil && s.m != nil {
			s.m.OnSegment(seg)
			return
		}
	}
	if seg.Flags&FlagSYN != 0 && seg.Flags&FlagACK == 0 {
		if lid, ok := c.listens[seg.DstPort]; ok {
			l := c.socks[lid]
			if l != nil && len(l.AcceptQ) < l.Backlog {
				c.isn += 64013
				m, err := NewPassive(c.ip, seg.DstPort, c.isn, seg, c.emit)
				if err != nil {
					return
				}
				c.nextSock++
				s := &sock{ID: c.nextSock, State: sockConn, m: m, LocalPort: seg.DstPort, Listener: lid, Opts: map[int]int{}}
				c.allocPCB(ctx, s)
				c.socks[s.ID] = s
				c.conns[key] = s.ID
				l.AcceptQ = append(l.AcceptQ, s.ID)
				return
			}
		}
	}
	if seg.Flags&FlagRST != 0 {
		return // no RST wars
	}
	// Segment for no connection: reset the sender (what a freshly
	// rebooted stack without restored state would do to every peer).
	c.Resets++
	c.emit(Segment{
		Src: seg.Dst, Dst: seg.Src, SrcPort: seg.DstPort, DstPort: seg.SrcPort,
		Seq: seg.Ack, Flags: FlagRST,
	})
}

// EvictSession implements core.SessionEvictor. Fresh, bound and
// listening sockets are log-reconstructible (socket/bind/listen are all
// logged durables); a listener's accept queue is stashed and re-attached
// by the replayed listen. Connected sockets refuse: their machine state
// (sequence/ACK numbers, buffered bytes) lives in the extracted runtime
// state, which only a whole-component reboot reinstalls.
func (c *Comp) EvictSession(ctx *core.Ctx, id int) error {
	s, ok := c.socks[id]
	if !ok {
		return nil // already gone; the replayed opener rebuilds it
	}
	if s.State == sockConn || s.m != nil {
		return fmt.Errorf("lwip: sock %d carries connection state replay cannot rebuild; recover at the component rung", id)
	}
	if s.State == sockListening && len(s.AcceptQ) > 0 {
		if c.evictedAcceptQ == nil {
			c.evictedAcceptQ = make(map[int][]int)
		}
		c.evictedAcceptQ[s.ID] = append([]int(nil), s.AcceptQ...)
	}
	c.destroySock(ctx, s)
	return nil
}

var (
	_ core.Component         = (*Comp)(nil)
	_ core.LogPolicyProvider = (*Comp)(nil)
	_ core.RuntimeKeeper     = (*Comp)(nil)
	_ core.StateSaver        = (*Comp)(nil)
	_ core.SessionEvictor    = (*Comp)(nil)
)

// SaveState implements core.StateSaver: every socket, listener
// registration and connection machine, not just allocation counters.
// Incremental checkpoints truncate the socket/bind/listen records whose
// replay used to rebuild the table, so the image itself must carry it —
// folding a durable record is only sound if its effect survives in the
// checkpoint. A fresh encoder, because the image outlives the next
// runtime-blob encode.
func (c *Comp) SaveState() ([]byte, error) {
	var e sockEncoder
	return e.encode(c.socks, c.nextSock, c.isn, true), nil
}

// RestoreState implements core.StateSaver. Each socket's ctlBlock is its
// PCB's arena address: checkpoint restore brings back the heap clone and
// the memory image together, so the block is valid again at the same
// address.
func (c *Comp) RestoreState(p []byte) error {
	nextSock, isn, socks, err := decodeSocks(p, c.emit)
	if err != nil {
		return err
	}
	c.socks = make(map[int]*sock)
	c.listens = make(map[uint16]int)
	c.conns = make(map[connKey]int)
	c.nextSock, c.isn = nextSock, isn
	for _, s := range socks {
		c.socks[s.ID] = s
		if s.m != nil {
			st := &s.m.st
			c.conns[connKey{Remote: st.Remote, RemotePort: st.RemotePort, LocalPort: st.LocalPort}] = s.ID
		}
		if s.State == sockListening {
			c.listens[s.LocalPort] = s.ID
		}
	}
	return nil
}
