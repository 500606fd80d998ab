package virtio

import "vampos/internal/mem"

// Desynced reports whether the host has detected an uncoordinated ring
// reset; a desynced device drops all traffic.
func (d *Device) Desynced() bool { return d.desync }

// GuestPop removes the oldest payload using a protection-checked accessor.
func (r *Ring) GuestPop(acc *mem.Accessor) ([]byte, bool, error) {
	return r.pop(acc, nil)
}

// Reset performs a coordinated device reset: both rings and the host
// shadow are cleared together, as the virtio protocol does across a VM
// reboot. This is legal exactly because both sides participate — the
// orchestration a component-level VIRTIO reboot lacks.
func (d *Device) Reset() error {
	if err := d.tx.reset(); err != nil {
		return err
	}
	if err := d.rx.reset(); err != nil {
		return err
	}
	d.lastTxProd = 0
	d.desync = false
	return nil
}

// reset zeroes the indices (coordinated device reset only).
func (r *Ring) reset() error {
	if err := r.writeU32(nil, 0, 0); err != nil {
		return err
	}
	return r.writeU32(nil, 4, 0)
}
