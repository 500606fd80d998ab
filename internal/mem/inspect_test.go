package mem

import (
	"fmt"
	"sort"
)

// Page, key and allocator operations only the tests use.

// WithWrite returns p with full read/write access added for key k.
func (p PKRU) WithWrite(k Key) PKRU {
	return p &^ (PKRU(3) << (2 * k))
}

// Without returns p with all access to key k removed.
func (p PKRU) Without(k Key) PKRU {
	if k == 0 {
		return p // key 0 is not revocable, as on real hardware setups
	}
	return p | PKRU(1)<<(2*k)
}

// FreePages unmaps n pages starting at base, zeroing their contents and
// resetting their key. base must be page-aligned.
func (m *Memory) FreePages(base Addr, n int) error {
	start, err := m.pageIndex(base, n)
	if err != nil {
		return err
	}
	for i := start; i < start+n; i++ {
		m.owned[i] = false
		m.keys[i] = 0
		m.frames[i] = nil
		// Unmapping changes content (to zeros), so the page is dirty
		// relative to any snapshot that saw the old bytes.
		m.vers[i] = m.verClk.Add(1)
	}
	return nil
}

// SetKey retags n pages starting at base with key.
func (m *Memory) SetKey(base Addr, n int, key Key) error {
	if key >= NumKeys {
		return fmt.Errorf("mem: SetKey: key %d out of range", key)
	}
	start, err := m.pageIndex(base, n)
	if err != nil {
		return err
	}
	for i := start; i < start+n; i++ {
		m.keys[i] = key
	}
	return nil
}

// KeyAt returns the protection key of the page containing addr.
func (m *Memory) KeyAt(addr Addr) (Key, error) {
	i, err := m.pageIndex(addr&^Addr(PageSize-1), 1)
	if err != nil {
		return 0, err
	}
	return m.keys[i], nil
}

// Base returns the arena base address.
func (b *Buddy) Base() Addr { return b.base }

// BlockSize returns the usable size of the live allocation at addr.
func (b *Buddy) BlockSize(addr Addr) (int64, bool) {
	ord, ok := b.alloced[addr-b.base]
	if !ok {
		return 0, false
	}
	return blockSize(ord), true
}

// LiveAllocations returns the addresses of all outstanding allocations in
// ascending order.
func (b *Buddy) LiveAllocations() []Addr {
	out := make([]Addr, 0, len(b.alloced))
	for off := range b.alloced {
		out = append(out, b.base+off)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Seed returns the current re-randomization seed (0 = legacy layout).
func (b *Buddy) Seed() uint64 { return b.seed }

// Size returns the arena size in bytes.
func (b *Buddy) Size() int64 { return b.size }

// DirtyPages counts the pages of prev's range whose write-version stamp
// has moved since prev was captured — the pages a SnapshotDelta would
// re-copy. prev must carry version stamps.
func (m *Memory) DirtyPages(prev *Snapshot) (int, error) {
	if !prev.wellFormed() {
		return 0, fmt.Errorf("mem: DirtyPages: snapshot lacks version stamps")
	}
	start, err := m.pageIndex(prev.Base, prev.Pages)
	if err != nil {
		return 0, err
	}
	dirty := 0
	for i := 0; i < prev.Pages; i++ {
		if m.vers[start+i] != prev.Vers[i] {
			dirty++
		}
	}
	return dirty, nil
}
