package mem

import (
	"bytes"
	"errors"
	"slices"
	"testing"
)

// zeroByHostWrite is the reference for Zero: a HostWrite of a buffer of
// zeros, whose observable effects the in-place clear must match.
func zeroByHostWrite(m *Memory, addr Addr, length int) error {
	return m.HostWrite(addr, make([]byte, length))
}

// TestZeroMatchesHostWriteOfZeros: pages materialised, both stamp clocks
// advanced once per page touched, residency and the next DirtyPages the
// same as writing a buffer of zeros — and no allocation once resident.
func TestZeroMatchesHostWriteOfZeros(t *testing.T) {
	const pages = 8
	build := func(zero func(*Memory, Addr, int) error) (*Memory, *Snapshot) {
		m := New(pages * PageSize)
		fillPage(t, m, 0, 1, 0x5A)
		fillPage(t, m, 0, 4, 0x5A)
		snap, err := m.Snapshot(0, pages)
		if err != nil {
			t.Fatal(err)
		}
		// Unaligned at both ends: pages 1..5, partly.
		if err := zero(m, PageSize+100, 4*PageSize); err != nil {
			t.Fatal(err)
		}
		return m, snap
	}
	got, gotSnap := build((*Memory).Zero)
	want, wantSnap := build(zeroByHostWrite)
	if !slices.Equal(got.vers, want.vers) || !slices.Equal(got.hostVers, want.hostVers) {
		t.Fatalf("stamps differ:\n vers %v / %v\n host %v / %v", got.vers, want.vers, got.hostVers, want.hostVers)
	}
	if g, w := got.ResidentBytes(), want.ResidentBytes(); g != w || g != 5*PageSize {
		t.Fatalf("resident = %d, HostWrite gives %d, want %d", g, w, 5*PageSize)
	}
	gd, _ := got.DirtyPages(gotSnap)
	wd, _ := want.DirtyPages(wantSnap)
	if gd != wd || gd != 5 {
		t.Fatalf("dirty = %d, HostWrite gives %d, want 5", gd, wd)
	}
	a, b := make([]byte, pages*PageSize), make([]byte, pages*PageSize)
	if got.HostRead(0, a) != nil || want.HostRead(0, b) != nil || !bytes.Equal(a, b) {
		t.Fatal("contents differ from a HostWrite of zeros")
	}
	if a[PageSize+99] != 0x5A || a[PageSize+100] != 0 {
		t.Fatal("Zero did not start at its address")
	}
	var f *Fault
	if err := got.Zero((pages-1)*PageSize, 2*PageSize); !errors.As(err, &f) || !f.OutOfRange {
		t.Fatalf("Zero past the end = %v, want an out-of-range fault", err)
	}
	if n := testing.AllocsPerRun(10, func() { _ = got.Zero(0, pages*PageSize) }); n != 0 {
		t.Fatalf("Zero on a resident range allocates %v times, want 0", n)
	}
}
