package virtio

import "vampos/internal/mem"

// Desynced reports whether the host has detected an uncoordinated ring
// reset; a desynced device drops all traffic.
func (d *Device) Desynced() bool { return d.desync }

// GuestPop removes the oldest payload using a protection-checked accessor.
func (r *Ring) GuestPop(acc *mem.Accessor) ([]byte, bool, error) {
	return r.pop(acc, nil)
}
