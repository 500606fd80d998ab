package virtio

import (
	"fmt"

	"vampos/internal/mem"
)

// Device is one virtio device: a TX ring (guest→host) and an RX ring
// (host→guest) plus the host's private shadow of the TX producer index.
// The shadow models the internal state a real device keeps outside guest
// memory: it is what makes an uncoordinated guest-side ring reset
// unrecoverable (paper §VIII).
type Device struct {
	Name string
	tx   *Ring
	rx   *Ring

	// lastTxProd is the host's private shadow of the TX producer.
	lastTxProd uint32
	desync     bool

	// HostNotify is called (on the guest thread) after a guest TX push,
	// modelling the doorbell write that wakes the host side.
	HostNotify func()
	// GuestIRQ is called (on the host thread) after a host RX push,
	// modelling the completion interrupt into the guest.
	GuestIRQ func()

	// Stats
	TxFrames, RxFrames uint64
	DroppedDesync      uint64
}

// NewDevice builds a device over two pre-allocated ring regions.
func NewDevice(name string, m *mem.Memory, txBase, rxBase mem.Addr, slots, slotSize int) (*Device, error) {
	tx, err := NewRing(m, txBase, slots, slotSize)
	if err != nil {
		return nil, err
	}
	rx, err := NewRing(m, rxBase, slots, slotSize)
	if err != nil {
		return nil, err
	}
	return &Device{Name: name, tx: tx, rx: rx}, nil
}

// GuestSend pushes a payload onto the TX ring and rings the doorbell.
func (d *Device) GuestSend(acc *mem.Accessor, payload []byte) error {
	if err := d.tx.GuestPush(acc, payload); err != nil {
		return err
	}
	d.TxFrames++
	if d.HostNotify != nil {
		d.HostNotify()
	}
	return nil
}

// GuestRecvInto pops a payload from the RX ring with a protection-checked
// accessor, into buf's array, for a driver that keeps the buffer for its
// next pop.
func (d *Device) GuestRecvInto(acc *mem.Accessor, buf []byte) ([]byte, bool, error) {
	return d.rx.pop(acc, buf)
}

// HostRecv pops the next guest-sent payload, detecting uncoordinated
// ring resets via the shadow producer index.
func (d *Device) HostRecv() ([]byte, bool, error) { return d.HostRecvInto(nil) }

// HostRecvInto is HostRecv into buf's array, for a caller that keeps the
// buffer for its next pop.
func (d *Device) HostRecvInto(buf []byte) ([]byte, bool, error) {
	prod, _, err := d.tx.Indices()
	if err != nil {
		return nil, false, err
	}
	if prod < d.lastTxProd {
		// The guest reinitialised the ring behind the device's back.
		d.desync = true
	}
	if d.desync {
		d.DroppedDesync++
		return nil, false, nil
	}
	d.lastTxProd = prod
	return d.tx.pop(nil, buf)
}

// HostSend pushes a payload onto the RX ring and raises the guest IRQ.
func (d *Device) HostSend(payload []byte) error {
	if d.desync {
		d.DroppedDesync++
		return fmt.Errorf("virtio: device %s desynced", d.Name)
	}
	if err := d.rx.HostPush(payload); err != nil {
		return err
	}
	d.RxFrames++
	if d.GuestIRQ != nil {
		d.GuestIRQ()
	}
	return nil
}
