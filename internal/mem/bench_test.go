package mem

import (
	"fmt"
	"testing"
)

// The benchmarks time the checkpoint primitives on the shape a component
// arena has in the runtime: 1,024 pages (4 MiB) of which a handful are
// resident, so a cost that follows the span instead of the touched pages
// shows as bytes/op.

const (
	benchPages    = 1024
	benchResident = 16
)

// benchArena returns a benchPages arena with its first benchResident
// pages written, and the page-sized buffer used to write them.
func benchArena(b *testing.B) (*Memory, []byte) {
	b.Helper()
	m := New(benchPages * PageSize)
	buf := make([]byte, PageSize)
	for pg := 0; pg < benchResident; pg++ {
		if err := m.HostWrite(Addr(pg*PageSize), buf); err != nil {
			b.Fatal(err)
		}
	}
	return m, buf
}

var benchSnap *Snapshot

func BenchmarkSnapshot(b *testing.B) {
	m, _ := benchArena(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if benchSnap, err = m.Snapshot(0, benchPages); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotDelta chains each delta on the one before, as the
// checkpoint cadence does; the writes that dirty the pages are untimed.
func BenchmarkSnapshotDelta(b *testing.B) {
	for _, dirty := range []int{0, 8} {
		b.Run(fmt.Sprintf("dirty=%d", dirty), func(b *testing.B) {
			m, buf := benchArena(b)
			snap, err := m.Snapshot(0, benchPages)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for pg := 0; pg < dirty; pg++ {
					if err := m.HostWrite(Addr(pg*PageSize), buf[:1]); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if snap, _, err = m.SnapshotDelta(snap); err != nil {
					b.Fatal(err)
				}
			}
			benchSnap = snap
		})
	}
}

func BenchmarkRestore(b *testing.B) {
	m, _ := benchArena(b)
	snap, err := m.Snapshot(0, benchPages)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Restore(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkZero scrubs the whole arena, as a cold re-init does; after the
// first iteration every page is resident.
func BenchmarkZero(b *testing.B) {
	m, _ := benchArena(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Zero(0, benchPages*PageSize); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccessorWrite256(b *testing.B) {
	m, buf := benchArena(b)
	acc := NewAccessor(m, AllowAll)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := acc.Write(Addr(i%benchResident)*PageSize, buf[:256]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHostWrite64: a 64-byte host-side store, the size of a message
// domain's slot header — the access every hop makes without a PKRU check.
func BenchmarkHostWrite64(b *testing.B) {
	m, buf := benchArena(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.HostWrite(Addr(i%benchResident)*PageSize, buf[:64]); err != nil {
			b.Fatal(err)
		}
	}
}
