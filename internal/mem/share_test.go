package mem

import (
	"bytes"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// shareOp is one step of the page-sharing property. Kind selects the
// operation; the other fields are reduced modulo what the step needs.
type shareOp struct {
	Kind, Page, Img, Val uint8
	Off, Len             uint16
}

const (
	sharePages = 8
	shareKeep  = 5 // images retained, like a defense history ring
)

// shareImage pairs an image with the reference model's private full copy
// of what it captured.
type shareImage struct {
	snap *Snapshot
	data []byte
	keys []Key
}

var zeroPage [PageSize]byte

// matches reports whether the image still holds exactly its private copy.
func (im shareImage) matches() bool {
	for i, p := range im.snap.pages {
		want := im.data[i*PageSize : (i+1)*PageSize]
		if p == nil {
			p = zeroPage[:]
		}
		if !bytes.Equal(p, want) || im.snap.Keys[i] != im.keys[i] {
			return false
		}
	}
	return true
}

// TestSharedImagesMatchPrivateCopies: random write / Zero / FreePages /
// SetKey / SnapshotDelta / Restore sequences, with deltas taken against
// and restores made from any retained image (the defense rollback
// restores older ones). The reference model keeps a full private copy per
// image; after every step each retained image must still equal its copy —
// a live write never shows through a shared page — and a restore must
// reproduce the copy byte for byte. A second goroutine reads the oldest
// image's own buffers (its pages and version stamps) throughout, so under
// -race any write into a captured buffer is reported. It never reads the
// live Memory: a Memory has one owner at a time and takes no lock.
func TestSharedImagesMatchPrivateCopies(t *testing.T) {
	const span = sharePages * PageSize
	prop := func(ops []shareOp) bool {
		m := New(span)
		live, keys := make([]byte, span), make([]Key, sharePages)
		first, err := m.Snapshot(0, sharePages)
		if err != nil {
			return false
		}
		images := []shareImage{{first, bytes.Clone(live), slices.Clone(keys)}}

		firstVers := slices.Clone(first.Vers)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, p := range first.pages {
					_ = bytes.IndexByte(p, 0xFF)
				}
				if !slices.Equal(first.Vers, firstVers) {
					t.Error("a captured image's version stamps changed")
					return
				}
				runtime.Gosched()
			}
		}()
		defer wg.Wait()
		defer close(stop)

		for _, op := range ops {
			pg := int(op.Page) % sharePages
			im := images[int(op.Img)%len(images)]
			switch op.Kind % 6 {
			case 0: // write, possibly across a page boundary
				at := pg*PageSize + int(op.Off)%PageSize
				buf := bytes.Repeat([]byte{op.Val}, min(int(op.Len)%(2*PageSize)+1, span-at))
				copy(live[at:], buf)
				err = m.HostWrite(Addr(at), buf)
			case 1:
				at := pg*PageSize + int(op.Off)%PageSize
				n := min(int(op.Len)%(2*PageSize), span-at)
				clear(live[at : at+n])
				err = m.Zero(Addr(at), n)
			case 2:
				clear(live[pg*PageSize : (pg+1)*PageSize])
				keys[pg] = 0
				err = m.FreePages(Addr(pg*PageSize), 1)
			case 3:
				keys[pg] = Key(op.Val % NumKeys)
				err = m.SetKey(Addr(pg*PageSize), 1, keys[pg])
			case 4:
				var snap *Snapshot
				snap, _, err = m.SnapshotDelta(im.snap)
				images = append(images, shareImage{snap, bytes.Clone(live), slices.Clone(keys)})
				if len(images) > shareKeep {
					images = images[1:]
				}
			case 5:
				err = m.Restore(im.snap)
				copy(live, im.data)
				copy(keys, im.keys)
				got := make([]byte, span)
				if m.HostRead(0, got) != nil || !bytes.Equal(got, live) {
					t.Logf("restore did not reproduce the captured bytes")
					return false
				}
				for i, k := range keys {
					if got, _ := m.KeyAt(Addr(i * PageSize)); got != k {
						t.Logf("restore left key %d on page %d, want %d", got, i, k)
						return false
					}
				}
			}
			if err != nil {
				t.Log(err)
				return false
			}
			for i, im := range images {
				if !im.matches() {
					t.Logf("retained image %d of %d changed after capture", i, len(images))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotDeltaAllocatesDirtyPagesOnly guards the point of the page
// table: a delta over a 1,024-page arena allocates its k dirty pages plus
// the per-page tables, never the arena. Counted in bytes, not timed.
func TestSnapshotDeltaAllocatesDirtyPagesOnly(t *testing.T) {
	const pages, resident, slack = 1024, 16, 64 << 10
	for _, k := range []int{0, 8} {
		m := New(pages * PageSize)
		for pg := 0; pg < resident; pg++ {
			fillPage(t, m, 0, pg, 1)
		}
		snap, err := m.Snapshot(0, pages)
		if err != nil {
			t.Fatal(err)
		}
		for pg := 0; pg < k; pg++ {
			fillPage(t, m, 0, pg, 2)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		delta, dirty, err := m.SnapshotDelta(snap)
		runtime.ReadMemStats(&after)
		if err != nil || dirty != k || delta.Resident != resident {
			t.Fatalf("k=%d: dirty=%d resident=%d err=%v", k, dirty, delta.Resident, err)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(k*PageSize+slack); got >= limit {
			t.Fatalf("k=%d: SnapshotDelta allocated %d bytes, want < %d", k, got, limit)
		}
	}
}
