package virtio

import (
	"time"

	"vampos/internal/core"
	"vampos/internal/mem"
	"vampos/internal/msg"
)

// Ports is where the guest driver attaches its devices; the host side
// implements it. Defined here so the component does not import the host
// package.
type Ports interface {
	AttachNet(dev *Device)
	Attach9P(dev *Device)
}

// Ring geometry defaults.
const (
	NetSlots   = 256
	NetSlot    = 2048
	P9Slots    = 64
	P9Slot     = 16384
	rpcPoll    = 2 * time.Microsecond
	rpcTimeout = 500 * time.Millisecond
	txRetry    = 100 * time.Millisecond
)

// Comp is the VIRTIO component: the guest-side driver for the virtio-net
// and virtio-9p devices. Its rings are shared with the host, which is
// why the reboot manager must never restart it (Descriptor.Unrebootable;
// paper §VIII).
type Comp struct {
	ports Ports
	// OnRxIRQ is invoked (from the host thread) when the host pushes a
	// network frame; the unikernel assembly wires it to inject an
	// rx_pump into the network stack.
	OnRxIRQ func()

	netDev *Device
	p9Dev  *Device
	tag    uint16
	// p9Busy serialises RPCs on the single virtio-9p channel. In
	// message-passing mode the component's worker already serialises;
	// in vanilla mode callers run on their own threads and must queue.
	p9Busy bool
	// frame and resp are the RX rings' pop buffers: a popped frame or
	// RPC response is encoded as the handler's result before it yields.
	frame, resp []byte
}

// New creates the VIRTIO component attached to the given host ports.
func New(ports Ports) *Comp {
	return &Comp{ports: ports}
}

// Describe implements core.Component.
func (c *Comp) Describe() core.Descriptor {
	return core.Descriptor{
		Name:         "virtio",
		Unrebootable: true,
		HeapPages:    4096, // 16 MiB: rings live in the driver arena
		DomainPages:  64,
		Deps:         nil,
	}
}

// Init allocates the rings inside the component arena and attaches the
// devices to the host. Re-running Init (a full VM reboot) re-creates the
// rings and re-attaches — the coordinated reset path.
func (c *Comp) Init(ctx *core.Ctx) error {
	m := ctx.Runtime().Memory()
	allocRing := func(slots, slotSize int) (mem.Addr, error) {
		return ctx.Heap().Alloc(int64(RingBytes(slots, slotSize)))
	}
	netTx, err := allocRing(NetSlots, NetSlot)
	if err != nil {
		return err
	}
	netRx, err := allocRing(NetSlots, NetSlot)
	if err != nil {
		return err
	}
	c.netDev, err = NewDevice("virtio-net", m, netTx, netRx, NetSlots, NetSlot)
	if err != nil {
		return err
	}
	c.netDev.GuestIRQ = func() {
		if c.OnRxIRQ != nil {
			c.OnRxIRQ()
		}
	}
	p9Tx, err := allocRing(P9Slots, P9Slot)
	if err != nil {
		return err
	}
	p9Rx, err := allocRing(P9Slots, P9Slot)
	if err != nil {
		return err
	}
	c.p9Dev, err = NewDevice("virtio-9p", m, p9Tx, p9Rx, P9Slots, P9Slot)
	if err != nil {
		return err
	}
	if c.ports != nil {
		c.ports.AttachNet(c.netDev)
		c.ports.Attach9P(c.p9Dev)
	}
	return nil
}

// Exports implements core.Component.
func (c *Comp) Exports() map[string]core.Handler {
	return map[string]core.Handler{
		"net_tx":     c.netTx,
		"net_rx_pop": c.netRxPop,
		"p9_rpc":     c.p9RPC,
	}
}

// netTx pushes one frame to the host, waiting briefly if the ring is
// momentarily full.
func (c *Comp) netTx(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	frame, err := ctx.Bytes(args, 0)
	if err != nil {
		return nil, err
	}
	deadline := ctx.Elapsed() + txRetry
	for {
		err := c.netDev.GuestSend(ctx.Mem(), frame)
		if err == nil {
			return nil, nil
		}
		if err != ErrRingFull || ctx.Elapsed() >= deadline {
			return nil, core.Errno("EIO: " + err.Error())
		}
		ctx.Sleep(rpcPoll)
	}
}

// netRxPop pops one received frame; EAGAIN when the ring is empty.
func (c *Comp) netRxPop(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	frame, ok, err := c.netDev.GuestRecvInto(ctx.Mem(), c.frame)
	if err != nil {
		return nil, core.Errno("EIO: " + err.Error())
	}
	if !ok {
		return nil, core.EAGAIN
	}
	c.frame = frame
	return ctx.Ret(frame)
}

// p9RPC sends one encoded 9P T-message and waits for its R-message. The
// driver serialises RPCs (one virtio-9p channel), so the first response
// is the response.
func (c *Comp) p9RPC(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	req, err := ctx.Bytes(args, 0)
	if err != nil {
		return nil, err
	}
	// Take the channel: concurrent callers (vanilla mode) queue here.
	for c.p9Busy {
		ctx.Sleep(rpcPoll)
	}
	c.p9Busy = true
	defer func() { c.p9Busy = false }()
	c.tag++
	if err := c.p9Dev.GuestSend(ctx.Mem(), req); err != nil {
		return nil, core.Errno("EIO: " + err.Error())
	}
	deadline := ctx.Elapsed() + rpcTimeout
	for {
		resp, ok, err := c.p9Dev.GuestRecvInto(ctx.Mem(), c.resp)
		if err != nil {
			return nil, core.Errno("EIO: " + err.Error())
		}
		if ok {
			c.resp = resp
			return ctx.Ret(resp)
		}
		if ctx.Elapsed() >= deadline {
			return nil, core.Errno("EIO: 9p rpc timeout")
		}
		// Only the host's 9p thread fills the ring, so the polls it sleeps
		// through are charged, not run.
		ctx.SleepPoll(rpcPoll, deadline)
	}
}
