// Package virtio models the virtio-net and virtio-9p devices: ring
// buffers that live in guest memory but are jointly operated by the
// guest driver and the host.
//
// The rings are the reason the paper's VIRTIO component is unrebootable
// (§VIII): the host keeps shadow copies of the ring indices (as a real
// device keeps internal state), so a guest-side reboot that reinitialises
// the rings desynchronises the two sides and I/O is silently lost. The
// Device type makes that failure observable; coordinated resets (a real
// VM reboot, where the virtio protocol renegotiates) go through Reset,
// which clears both sides together.
package virtio

import (
	"encoding/binary"
	"fmt"
	"slices"

	"vampos/internal/mem"
)

// Ring is a fixed-slot circular buffer in guest memory.
//
// Layout: prod u32 | cons u32 | slots × (len u32 | data[slotSize]).
type Ring struct {
	m        *mem.Memory
	base     mem.Addr
	slots    int
	slotSize int
}

const ringHeader = 8

// RingBytes returns the memory footprint of a ring.
func RingBytes(slots, slotSize int) int {
	return ringHeader + slots*(4+slotSize)
}

// NewRing frames a ring over pre-allocated guest memory at base. The
// caller must have zeroed the region (fresh pages are).
func NewRing(m *mem.Memory, base mem.Addr, slots, slotSize int) (*Ring, error) {
	if slots <= 0 || slotSize <= 0 {
		return nil, fmt.Errorf("virtio: ring %d×%d invalid", slots, slotSize)
	}
	return &Ring{m: m, base: base, slots: slots, slotSize: slotSize}, nil
}

// read and write go through the guest's protection-checked accessor or,
// when acc is nil, through host DMA. Both callees are concrete methods, so
// the index words passed to them stay on the caller's stack.
func (r *Ring) read(acc *mem.Accessor, a mem.Addr, p []byte) error {
	if acc != nil {
		return acc.Read(a, p)
	}
	return r.m.HostRead(a, p)
}

func (r *Ring) write(acc *mem.Accessor, a mem.Addr, p []byte) error {
	if acc != nil {
		return acc.Write(a, p)
	}
	return r.m.HostWrite(a, p)
}

func (r *Ring) readU32(acc *mem.Accessor, off int) (uint32, error) {
	var b [4]byte
	if err := r.read(acc, r.base+mem.Addr(off), b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func (r *Ring) writeU32(acc *mem.Accessor, off int, val uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], val)
	return r.write(acc, r.base+mem.Addr(off), b[:])
}

func (r *Ring) slotOff(i uint32) int {
	return ringHeader + int(i%uint32(r.slots))*(4+r.slotSize)
}

// ErrRingFull reports a push into a full ring.
var ErrRingFull = fmt.Errorf("virtio: ring full")

// push appends payload through acc, or as the host when acc is nil.
func (r *Ring) push(acc *mem.Accessor, payload []byte) error {
	if len(payload) > r.slotSize {
		return fmt.Errorf("virtio: payload %d exceeds slot size %d", len(payload), r.slotSize)
	}
	prod, err := r.readU32(acc, 0)
	if err != nil {
		return err
	}
	cons, err := r.readU32(acc, 4)
	if err != nil {
		return err
	}
	if prod-cons >= uint32(r.slots) {
		return ErrRingFull
	}
	off := r.slotOff(prod)
	if err := r.writeU32(acc, off, uint32(len(payload))); err != nil {
		return err
	}
	if err := r.write(acc, r.base+mem.Addr(off+4), payload); err != nil {
		return err
	}
	return r.writeU32(acc, 0, prod+1)
}

// pop removes the oldest payload through acc, or as the host when acc is
// nil, reading it into buf's array (a new one when buf is too small).
func (r *Ring) pop(acc *mem.Accessor, buf []byte) ([]byte, bool, error) {
	prod, err := r.readU32(acc, 0)
	if err != nil {
		return nil, false, err
	}
	cons, err := r.readU32(acc, 4)
	if err != nil {
		return nil, false, err
	}
	if cons == prod {
		return nil, false, nil
	}
	off := r.slotOff(cons)
	n, err := r.readU32(acc, off)
	if err != nil {
		return nil, false, err
	}
	if int(n) > r.slotSize {
		return nil, false, fmt.Errorf("virtio: corrupt slot length %d", n)
	}
	p := slices.Grow(buf[:0], int(n))[:n]
	if err := r.read(acc, r.base+mem.Addr(off+4), p); err != nil {
		return nil, false, err
	}
	if err := r.writeU32(acc, 4, cons+1); err != nil {
		return nil, false, err
	}
	return p, true, nil
}

// GuestPush appends payload using a protection-checked accessor.
func (r *Ring) GuestPush(acc *mem.Accessor, payload []byte) error {
	return r.push(acc, payload)
}

// HostPush appends payload with DMA (unchecked) access.
func (r *Ring) HostPush(payload []byte) error {
	return r.push(nil, payload)
}

// HostPop removes the oldest payload with DMA access.
func (r *Ring) HostPop() ([]byte, bool, error) {
	return r.pop(nil, nil)
}

// Indices returns the current producer and consumer indices (host read).
func (r *Ring) Indices() (prod, cons uint32, err error) {
	if prod, err = r.readU32(nil, 0); err != nil {
		return 0, 0, err
	}
	cons, err = r.readU32(nil, 4)
	return prod, cons, err
}
