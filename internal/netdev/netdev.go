// Package netdev implements the NETDEV component: low-level packet
// operations between the network stack and the virtio-net driver
// (paper Table I). It is stateless — a reboot is a plain re-init — and
// sits strictly below LWIP in the call hierarchy, so the component call
// graph stays acyclic.
package netdev

import (
	"vampos/internal/core"
	"vampos/internal/msg"
)

// Comp is the NETDEV component.
type Comp struct {
	// Stats
	TxFrames uint64
	RxFrames uint64
	TxBytes  uint64
	RxBytes  uint64
}

// New creates the NETDEV component.
func New() *Comp { return &Comp{} }

// Describe implements core.Component.
func (c *Comp) Describe() core.Descriptor {
	return core.Descriptor{
		Name:        "netdev",
		HeapPages:   64,
		DomainPages: 64,
		Deps:        []string{"virtio"},
	}
}

// Init implements core.Component. NETDEV reboots stateless; a reboot
// must leave nothing aged, so the counters reset too.
func (c *Comp) Init(*core.Ctx) error {
	c.TxFrames, c.RxFrames, c.TxBytes, c.RxBytes = 0, 0, 0, 0
	return nil
}

// Exports implements core.Component.
func (c *Comp) Exports() map[string]core.Handler {
	return map[string]core.Handler{
		"tx":     c.tx,
		"rx_pop": c.rxPop,
	}
}

// tx forwards one frame down to the virtio-net driver.
func (c *Comp) tx(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	frame, err := ctx.Bytes(args, 0)
	if err != nil {
		return nil, err
	}
	if _, err := ctx.Call("virtio", "net_tx", frame); err != nil {
		return nil, err
	}
	c.TxFrames++
	c.TxBytes += uint64(len(frame))
	return nil, nil
}

// rxPop pulls one received frame up from the driver; EAGAIN when none.
func (c *Comp) rxPop(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	rets, err := ctx.Call("virtio", "net_rx_pop")
	if err != nil {
		return nil, err
	}
	frame, err := ctx.Bytes(rets, 0)
	if err != nil {
		return nil, err
	}
	c.RxFrames++
	c.RxBytes += uint64(len(frame))
	return ctx.Ret(frame)
}
