// Package mem models the single flat address space shared by a
// unikernel-linked application and its components, together with the
// Intel MPK-style in-process protection that VampOS uses to confine error
// propagation (paper §V-D).
//
// The model follows Intel MPK closely: every 4 KiB page carries a 4-bit
// protection key, and every thread carries a PKRU word holding an
// access-disable and a write-disable bit per key. All guest accesses go
// through an Accessor bound to the current thread's PKRU; an access to a
// page whose key the PKRU disables returns a *Fault instead of touching
// the page, which is how a wild write out of a faulty component is caught
// before it damages another component's memory. The host (hypervisor)
// bypasses protection, as real DMA does.
package mem

import (
	"fmt"
	//vampos:allow schedonly -- parallel round slices on the shard runners write disjoint pages of one Memory at once; the three counters every access may bump are the state they share
	"sync/atomic"
)

// PageSize is the size of one page in bytes, matching x86.
const PageSize = 4096

// NumKeys is the number of protection keys, matching Intel MPK.
const NumKeys = 16

// Key identifies a protection domain. Key 0 is the default key: like the
// conventional MPK setup, pages tagged 0 are accessible regardless of
// PKRU, so bootstrap code always has somewhere to stand.
type Key uint8

// Addr is a guest-physical address in the flat space.
type Addr uint64

// PKRU mirrors the x86 PKRU register layout: bit 2k disables all access
// to key k, bit 2k+1 disables writes to key k.
type PKRU uint32

// DenyAll is a PKRU with every key except key 0 fully disabled.
const DenyAll PKRU = 0xFFFFFFFC

// AllowAll is a PKRU granting read/write on every key.
const AllowAll PKRU = 0

// Allow returns a PKRU that permits read/write on key 0 and the listed
// keys and denies everything else.
func Allow(keys ...Key) PKRU {
	p := DenyAll
	for _, k := range keys {
		p &^= PKRU(3) << (2 * k)
	}
	return p
}

// WithRead returns p with read (but not write) access added for key k.
func (p PKRU) WithRead(k Key) PKRU {
	p &^= PKRU(1) << (2 * k)  // clear AD
	p |= PKRU(1) << (2*k + 1) // set WD
	return p
}

// CanRead reports whether p permits reads of pages tagged k.
func (p PKRU) CanRead(k Key) bool {
	return k == 0 || p&(PKRU(1)<<(2*k)) == 0
}

// CanWrite reports whether p permits writes to pages tagged k.
func (p PKRU) CanWrite(k Key) bool {
	return k == 0 || p&(PKRU(3)<<(2*k)) == 0
}

// Op distinguishes the access kind recorded in a Fault.
type Op uint8

// Access kinds.
const (
	OpRead Op = iota + 1
	OpWrite
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Fault is a protection violation: an access denied by the PKRU, or an
// access outside the mapped address space. It is the software analogue of
// the #PF a real MPK violation raises, and the failure detector treats it
// as a fail-stop of the offending component.
type Fault struct {
	Addr Addr
	Key  Key // key of the page touched; meaningless if OutOfRange
	Op   Op
	PKRU PKRU
	// OutOfRange marks an access beyond the address space rather than a
	// key violation.
	OutOfRange bool
}

func (f *Fault) Error() string {
	if f.OutOfRange {
		return fmt.Sprintf("mem: %s fault at %#x: address out of range", f.Op, uint64(f.Addr))
	}
	return fmt.Sprintf("mem: %s fault at %#x: page key %d denied by pkru %#08x",
		f.Op, uint64(f.Addr), f.Key, uint32(f.PKRU))
}

// Memory is the flat paged address space. Pages are materialised lazily,
// so a large space costs nothing until touched.
//
// Memory takes no lock. Its pages are partitioned among the threads that
// may run at once: the slices of a parallel round run threads of different
// shard ordinals, and threads that share memory share an ordinal
// (sched.Thread.SetShard), so two slices never touch one page. Mapping,
// snapshots, restores and domain pushes run on the conductor alone. What
// every access may touch in common — the version clocks and the fault
// count — is atomic. A goroutine outside the run reads a Memory only
// after the run has stopped.
type Memory struct {
	npages   int
	keys     []Key
	frames   [][]byte
	owned    []bool // page is part of some mapping
	faults   atomic.Uint64
	searchAt int // next-fit cursor for page allocation
	// vers holds a per-page write-version stamp assigned from verClk on
	// every mutation, the model's analogue of hardware dirty bits: a page
	// is dirty relative to a Snapshot iff its stamp differs from the one
	// the snapshot recorded. Restore resets stamps to the snapshot's, so
	// a page written and then restored back reads clean again.
	vers   []uint64
	verClk atomic.Uint64
	// hostVers stamps pages on host-side writes only (HostWrite, DMA-style
	// device copies). A guest component never legitimately receives a host
	// write into its private arena mid-run, so the defense seal compares
	// these stamps across quiescent points: a moved stamp is evidence of
	// out-of-band tampering regardless of how many legitimate guest writes
	// also landed.
	hostVers []uint64
	hostClk  atomic.Uint64
}

// New creates an address space of the given size, rounded up to whole
// pages. Size must be positive.
func New(size int64) *Memory {
	if size <= 0 {
		panic(fmt.Sprintf("mem: New(%d): size must be positive", size))
	}
	n := int((size + PageSize - 1) / PageSize)
	return &Memory{
		npages:   n,
		keys:     make([]Key, n),
		frames:   make([][]byte, n),
		owned:    make([]bool, n),
		vers:     make([]uint64, n),
		hostVers: make([]uint64, n),
	}
}

// Faults returns the number of protection faults raised so far.
func (m *Memory) Faults() uint64 { return m.faults.Load() }

// ResidentBytes returns the number of bytes in materialised pages: the
// model's equivalent of resident-set size, used by the Fig. 7b memory
// accounting.
func (m *Memory) ResidentBytes() int64 {
	var n int64
	for _, f := range m.frames {
		if f != nil {
			n += PageSize
		}
	}
	return n
}

// AllocPages maps n contiguous pages tagged with key and returns the base
// address. It fails when no contiguous run of unmapped pages exists.
func (m *Memory) AllocPages(n int, key Key) (Addr, error) {
	if n <= 0 {
		return 0, fmt.Errorf("mem: AllocPages(%d): count must be positive", n)
	}
	if key >= NumKeys {
		return 0, fmt.Errorf("mem: AllocPages: key %d out of range", key)
	}
	start, ok := m.findRun(n)
	if !ok {
		return 0, fmt.Errorf("mem: AllocPages(%d): no contiguous region in %d-page space", n, m.npages)
	}
	for i := start; i < start+n; i++ {
		m.owned[i] = true
		m.keys[i] = key
	}
	m.searchAt = start + n
	return Addr(start) * PageSize, nil
}

// findRun locates n consecutive unowned pages using a next-fit scan.
func (m *Memory) findRun(n int) (int, bool) {
	if n > m.npages {
		return 0, false
	}
	scan := func(from, to int) (int, bool) {
		run := 0
		for i := from; i < to; i++ {
			if m.owned[i] {
				run = 0
				continue
			}
			run++
			if run == n {
				return i - n + 1, true
			}
		}
		return 0, false
	}
	if at := m.searchAt; at < m.npages {
		if s, ok := scan(at, m.npages); ok {
			return s, true
		}
	}
	return scan(0, m.npages)
}

func (m *Memory) pageIndex(base Addr, n int) (int, error) {
	if base%PageSize != 0 {
		return 0, fmt.Errorf("mem: address %#x not page-aligned", uint64(base))
	}
	start := int(base / PageSize)
	if n < 0 || start < 0 || start+n > m.npages {
		return 0, fmt.Errorf("mem: page range [%d,%d) outside %d-page space", start, start+n, m.npages)
	}
	return start, nil
}

// frame returns the backing bytes of page i, materialising it on first
// touch.
func (m *Memory) frame(i int) []byte {
	if m.frames[i] == nil {
		m.frames[i] = make([]byte, PageSize)
	}
	return m.frames[i]
}

// access copies n bytes between guest memory and p, checking each touched
// page against pkru unless host is set. write selects the direction; a
// write with a nil p stores zeros, clearing the frames in place.
func (m *Memory) access(addr Addr, n int, p []byte, pkru PKRU, write, host bool) error {
	if n <= 0 {
		return nil
	}
	end := uint64(addr) + uint64(n)
	if end > uint64(m.npages)*PageSize || end < uint64(addr) {
		m.faults.Add(1)
		op := OpRead
		if write {
			op = OpWrite
		}
		return &Fault{Addr: addr, Op: op, PKRU: pkru, OutOfRange: true}
	}
	off := 0
	for off < n {
		pg := int((uint64(addr) + uint64(off)) / PageSize)
		inPage := int((uint64(addr) + uint64(off)) % PageSize)
		chunk := PageSize - inPage
		if rem := n - off; chunk > rem {
			chunk = rem
		}
		if !host {
			key := m.keys[pg]
			allowed := pkru.CanRead(key)
			if write {
				allowed = pkru.CanWrite(key)
			}
			if !allowed {
				m.faults.Add(1)
				op := OpRead
				if write {
					op = OpWrite
				}
				return &Fault{Addr: addr + Addr(off), Key: key, Op: op, PKRU: pkru}
			}
		}
		f := m.frame(pg)
		if write {
			m.vers[pg] = m.verClk.Add(1)
			if host {
				m.hostVers[pg] = m.hostClk.Add(1)
			}
			if p == nil {
				clear(f[inPage : inPage+chunk])
			} else {
				copy(f[inPage:inPage+chunk], p[off:off+chunk])
			}
		} else {
			copy(p[off:off+chunk], f[inPage:inPage+chunk])
		}
		off += chunk
	}
	return nil
}

// HostRead copies guest memory into p without protection checks, as a
// hypervisor or DMA engine would.
func (m *Memory) HostRead(addr Addr, p []byte) error {
	return m.access(addr, len(p), p, 0, false, true)
}

// HostWrite copies p into guest memory without protection checks.
func (m *Memory) HostWrite(addr Addr, p []byte) error {
	return m.access(addr, len(p), p, 0, true, true)
}

// Accessor performs protection-checked accesses on behalf of one thread.
// The scheduler installs the thread's PKRU on dispatch, mirroring the tag
// switch VampOS performs on every context switch.
type Accessor struct {
	mem  *Memory
	pkru PKRU
	// faults counts protection faults raised through this accessor. Each
	// accessor belongs to one simulated thread, so the count attributes
	// faults to their raiser even when shard runners execute handlers of
	// different components concurrently (the global Memory counter can
	// move on a neighbouring shard mid-handler).
	faults uint64
}

// NewAccessor binds an accessor to m with the given PKRU.
func NewAccessor(m *Memory, pkru PKRU) *Accessor {
	return &Accessor{mem: m, pkru: pkru}
}

// SetPKRU replaces the accessor's PKRU word.
func (a *Accessor) SetPKRU(p PKRU) { a.pkru = p }

// Read copies len(p) bytes at addr into p, checking protections.
func (a *Accessor) Read(addr Addr, p []byte) error {
	err := a.mem.access(addr, len(p), p, a.pkru, false, false)
	if err != nil {
		a.faults++
	}
	return err
}

// Write copies p into memory at addr, checking protections.
func (a *Accessor) Write(addr Addr, p []byte) error {
	err := a.mem.access(addr, len(p), p, a.pkru, true, false)
	if err != nil {
		a.faults++
	}
	return err
}

// Faults returns the number of protection faults raised through this
// accessor.
func (a *Accessor) Faults() uint64 { return a.faults }

// ReadBytes reads and returns n bytes at addr.
func (a *Accessor) ReadBytes(addr Addr, n int) ([]byte, error) {
	p := make([]byte, n)
	if err := a.Read(addr, p); err != nil {
		return nil, err
	}
	return p, nil
}

// Snapshot is an image of a page range and its keys, used by
// checkpoint-based initialization (paper §V-E) and by the incremental
// checkpoint manager. It is a page table over immutable buffers: nothing
// writes a captured page again, so successive images share the pages that
// did not change between them and the garbage collector frees a buffer
// when the last image holding it is dropped.
type Snapshot struct {
	Base  Addr
	Pages int
	Keys  []Key
	// Vers records each page's write-version stamp at capture time.
	// SnapshotDelta compares the live stamps against these to find pages
	// dirtied since this snapshot was taken.
	Vers []uint64
	// pages holds one buffer per page that was materialised at capture
	// time. Absent pages (nil) hold zeros, so Restore skips copying them
	// and drops their frames, making restore cost proportional to Resident
	// rather than to the arena span.
	pages [][]byte
	// Resident counts the present pages.
	Resident int
}

// wellFormed reports whether s carries the per-page tables its Pages
// count promises, which a hand-assembled Snapshot does not.
func (s *Snapshot) wellFormed() bool {
	return s != nil && len(s.Keys) == s.Pages && len(s.Vers) == s.Pages && len(s.pages) == s.Pages
}

// Snapshot captures n pages starting at base, copying the resident ones.
// The host takes snapshots, so no protection check applies (the paper
// reuses the QEMU snapshot feature for the same reason).
func (m *Memory) Snapshot(base Addr, n int) (*Snapshot, error) {
	start, err := m.pageIndex(base, n)
	if err != nil {
		return nil, err
	}
	s, _ := m.capture(base, start, n, nil)
	return s, nil
}

// capture builds the image of n pages from page index start. A page whose
// stamp matches prev's is stored as a reference to prev's buffer; any
// other page counts as dirty, and is copied if resident and left absent if
// not.
func (m *Memory) capture(base Addr, start, n int, prev *Snapshot) (*Snapshot, int) {
	s := &Snapshot{
		Base: base, Pages: n,
		Keys:  make([]Key, n),
		Vers:  make([]uint64, n),
		pages: make([][]byte, n),
	}
	copy(s.Keys, m.keys[start:start+n])
	copy(s.Vers, m.vers[start:start+n])
	dirty := 0
	for i := range s.pages {
		if prev != nil && s.Vers[i] == prev.Vers[i] {
			s.pages[i] = prev.pages[i]
		} else {
			dirty++
			if f := m.frames[start+i]; f != nil {
				s.pages[i] = append([]byte(nil), f...)
			}
			// A dirtied-then-unmapped page is absent again: zeros.
		}
		if s.pages[i] != nil {
			s.Resident++
		}
	}
	return s, dirty
}

// SnapshotDelta captures a new full snapshot of prev's page range by
// copying only the pages dirtied since prev was taken and referencing
// prev's buffers for the rest — the incremental-checkpoint primitive. The
// returned snapshot is self-contained (Restore needs no chain of deltas,
// and dropping prev frees only the pages nothing else holds); the second
// result is the number of dirty pages, which is what the cost model should
// charge. prev must carry version stamps.
func (m *Memory) SnapshotDelta(prev *Snapshot) (*Snapshot, int, error) {
	if !prev.wellFormed() {
		return nil, 0, fmt.Errorf("mem: SnapshotDelta: snapshot lacks version stamps")
	}
	start, err := m.pageIndex(prev.Base, prev.Pages)
	if err != nil {
		return nil, 0, err
	}
	s, dirty := m.capture(prev.Base, start, prev.Pages, prev)
	return s, dirty, nil
}

// Restore writes a snapshot back over its original page range, restoring
// both contents and keys. Only present (resident-at-capture) pages are
// copied; absent pages get their frames dropped, which reads as zeros.
// Version stamps are reset to the snapshot's, so restored pages read
// clean relative to it.
func (m *Memory) Restore(s *Snapshot) error {
	if !s.wellFormed() {
		return fmt.Errorf("mem: Restore: snapshot lacks its page tables")
	}
	start, err := m.pageIndex(s.Base, s.Pages)
	if err != nil {
		return err
	}
	copy(m.keys[start:], s.Keys)
	copy(m.vers[start:], s.Vers)
	for i, p := range s.pages {
		if p != nil {
			copy(m.frame(start+i), p)
		} else {
			m.frames[start+i] = nil
		}
	}
	return nil
}

// HostVersions returns a copy of the host-write version stamps for n
// pages starting at base. The defense seal captures these at a quiescent
// point and compares at the next one: any stamp movement means the host
// boundary wrote into the range in between — tampering, as far as a
// component's private arena is concerned.
func (m *Memory) HostVersions(base Addr, n int) ([]uint64, error) {
	start, err := m.pageIndex(base, n)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, n)
	copy(out, m.hostVers[start:start+n])
	return out, nil
}

// Zero clears length bytes at addr in place, as a HostWrite of zeros
// would: no protection checks, every touched page materialised and its
// stamps advanced. The reboot manager uses it to scrub a component's pages
// on cold re-init.
func (m *Memory) Zero(addr Addr, length int) error {
	return m.access(addr, length, nil, 0, true, true)
}
