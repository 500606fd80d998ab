package mem

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// MinBlock is the smallest buddy block in bytes.
const MinBlock = 32

// Buddy is a binary-buddy allocator over one component's arena, the
// analogue of Unikraft's ukallocbuddy. Its bookkeeping is deliberately
// observable — allocated bytes, fragmentation, outstanding allocations —
// because software aging of exactly this allocator (leaks, fragmentation)
// is the phenomenon component-level rejuvenation exists to clear: a reboot
// discards the aged allocator and builds a fresh one over the restored
// arena.
type Buddy struct {
	base    Addr
	size    int64
	maxOrd  int
	free    [][]Addr     // free block offsets per order
	alloced map[Addr]int // live allocation -> order
	stats   BuddyStats
	// seed/rng drive layout re-randomization: when seed is nonzero, Alloc
	// makes its split-half and free-list-pick choices from the rng stream
	// so the arena layout differs per reboot. Zero keeps the historical
	// deterministic layout (keep-low split, pop-last) byte for byte.
	seed uint64
	rng  uint64
}

// BuddyStats describes allocator health; the aging experiments read it.
type BuddyStats struct {
	TotalBytes     int64
	AllocatedBytes int64
	FreeBytes      int64
	LiveAllocs     int
	AllocCalls     uint64
	FreeCalls      uint64
	FailedAllocs   uint64
	// LargestFreeBlock is the biggest block that can currently be handed
	// out; it shrinks as fragmentation accumulates.
	LargestFreeBlock int64
}

// ExternalFragmentation returns 1 - largest_free/total_free, the standard
// external-fragmentation metric. It is 0 when the arena is unfragmented
// or has no free space at all.
func (s BuddyStats) ExternalFragmentation() float64 {
	if s.FreeBytes == 0 || s.LargestFreeBlock == s.FreeBytes {
		return 0
	}
	return 1 - float64(s.LargestFreeBlock)/float64(s.FreeBytes)
}

// NewBuddy creates an allocator managing size bytes starting at base.
// Size must be a power-of-two multiple of MinBlock.
func NewBuddy(base Addr, size int64) (*Buddy, error) {
	if size < MinBlock || size&(size-1) != 0 {
		return nil, fmt.Errorf("mem: buddy size %d must be a power of two >= %d", size, MinBlock)
	}
	b := &Buddy{
		base:    base,
		size:    size,
		alloced: make(map[Addr]int),
	}
	b.maxOrd = orderOf(size)
	b.free = make([][]Addr, b.maxOrd+1)
	b.free[b.maxOrd] = []Addr{0}
	b.stats = BuddyStats{TotalBytes: size, FreeBytes: size, LargestFreeBlock: size}
	return b, nil
}

// orderOf returns log2(size/MinBlock) for a power-of-two size.
func orderOf(size int64) int {
	ord := 0
	for s := int64(MinBlock); s < size; s <<= 1 {
		ord++
	}
	return ord
}

// blockSize returns the byte size of a block of the given order.
func blockSize(ord int) int64 { return MinBlock << ord }

// orderFor returns the smallest order whose block fits n bytes.
func orderFor(n int64) int {
	ord := 0
	for blockSize(ord) < n {
		ord++
	}
	return ord
}

// Alloc reserves at least n bytes and returns the block's address.
func (b *Buddy) Alloc(n int64) (Addr, error) {
	if n <= 0 {
		return 0, fmt.Errorf("mem: buddy Alloc(%d): size must be positive", n)
	}
	b.stats.AllocCalls++
	want := orderFor(n)
	if want > b.maxOrd {
		b.stats.FailedAllocs++
		return 0, fmt.Errorf("mem: buddy Alloc(%d): exceeds arena size %d", n, b.size)
	}
	// Find the smallest order with a free block, splitting downward.
	ord := want
	for ord <= b.maxOrd && len(b.free[ord]) == 0 {
		ord++
	}
	if ord > b.maxOrd {
		b.stats.FailedAllocs++
		return 0, fmt.Errorf("mem: buddy Alloc(%d): out of memory (frag %.2f)", n, b.Stats().ExternalFragmentation())
	}
	off := b.popFree(ord)
	for ord > want {
		ord--
		// Keep the low half, return the high buddy to its free list —
		// unless re-randomization is on, in which case the rng picks
		// which half survives the split.
		if b.seed != 0 && b.next()&1 == 1 {
			b.pushFree(ord, off)
			off += Addr(blockSize(ord))
		} else {
			b.pushFree(ord, off+Addr(blockSize(ord)))
		}
	}
	b.alloced[off] = want
	b.stats.AllocatedBytes += blockSize(want)
	b.stats.FreeBytes -= blockSize(want)
	b.stats.LiveAllocs++
	return b.base + off, nil
}

// Free releases a block previously returned by Alloc, coalescing buddies.
func (b *Buddy) Free(addr Addr) error {
	b.stats.FreeCalls++
	if addr < b.base {
		return fmt.Errorf("mem: buddy Free(%#x): below arena base", uint64(addr))
	}
	off := addr - b.base
	ord, ok := b.alloced[off]
	if !ok {
		return fmt.Errorf("mem: buddy Free(%#x): not an allocated block", uint64(addr))
	}
	delete(b.alloced, off)
	b.stats.AllocatedBytes -= blockSize(ord)
	b.stats.FreeBytes += blockSize(ord)
	b.stats.LiveAllocs--
	// Coalesce with the buddy while it is free.
	for ord < b.maxOrd {
		buddy := off ^ Addr(blockSize(ord))
		if !b.removeFree(ord, buddy) {
			break
		}
		if buddy < off {
			off = buddy
		}
		ord++
	}
	b.pushFree(ord, off)
	return nil
}

// Stats returns a copy of the allocator statistics with the
// largest-free-block field freshly computed.
func (b *Buddy) Stats() BuddyStats {
	s := b.stats
	s.LargestFreeBlock = 0
	for ord := b.maxOrd; ord >= 0; ord-- {
		if len(b.free[ord]) > 0 {
			s.LargestFreeBlock = blockSize(ord)
			break
		}
	}
	return s
}

// Clone returns a deep copy of the allocator's metadata. Checkpoint-based
// initialization stores a clone of the post-init allocator alongside the
// memory snapshot and re-clones it at every restore, so the restored
// heap's bookkeeping matches the restored heap's contents exactly.
func (b *Buddy) Clone() *Buddy {
	c := &Buddy{
		base:    b.base,
		size:    b.size,
		maxOrd:  b.maxOrd,
		free:    make([][]Addr, len(b.free)),
		alloced: make(map[Addr]int, len(b.alloced)),
		stats:   b.stats,
		seed:    b.seed,
		rng:     b.rng,
	}
	for ord, list := range b.free {
		c.free[ord] = append([]Addr(nil), list...)
	}
	for off, ord := range b.alloced {
		c.alloced[off] = ord
	}
	return c
}

func (b *Buddy) popFree(ord int) Addr {
	list := b.free[ord]
	i := len(list) - 1
	if b.seed != 0 && len(list) > 1 {
		i = int(b.next() % uint64(len(list)))
	}
	off := list[i]
	list[i] = list[len(list)-1]
	b.free[ord] = list[:len(list)-1]
	return off
}

func (b *Buddy) pushFree(ord int, off Addr) {
	b.free[ord] = append(b.free[ord], off)
}

// Reseed arms layout re-randomization with a per-reboot seed. Every
// subsequent Alloc draws its split-half and free-block choices from a
// deterministic stream over the seed, so two reboots with different
// seeds produce different arena layouts while the same seed reproduces
// the same layout exactly (campaign matrices stay byte-identical).
// Reseeding with 0 restores the historical deterministic layout.
func (b *Buddy) Reseed(seed uint64) {
	b.seed = seed
	b.rng = seed
}

// next advances the splitmix64 stream.
func (b *Buddy) next() uint64 {
	b.rng += 0x9e3779b97f4a7c15
	z := b.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Fingerprint hashes the arena's layout-determining state: the seed, the
// geometry, and every free-list entry in order. Folding the seed in
// guarantees two reboots with different seeds fingerprint differently
// even when the free lists happen to coincide (a freshly split arena has
// exactly one free block per order, so list contents alone cannot tell
// reboots apart); the free lists make the fingerprint track the actual
// allocation layout as it evolves.
func (b *Buddy) Fingerprint() uint64 {
	h := fnv.New64a()
	var le [8]byte
	mix := func(v uint64) {
		binary.LittleEndian.PutUint64(le[:], v)
		h.Write(le[:])
	}
	mix(b.seed)
	mix(uint64(b.base))
	mix(uint64(b.size))
	for ord, list := range b.free {
		mix(uint64(ord))
		mix(uint64(len(list)))
		for _, off := range list {
			mix(uint64(off))
		}
	}
	return h.Sum64()
}

// removeFree removes off from the order's free list if present.
func (b *Buddy) removeFree(ord int, off Addr) bool {
	list := b.free[ord]
	for i, v := range list {
		if v == off {
			list[i] = list[len(list)-1]
			b.free[ord] = list[:len(list)-1]
			return true
		}
	}
	return false
}
