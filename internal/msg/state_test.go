package msg

import (
	"encoding/binary"
	"reflect"
	"testing"
)

func TestStateReaderRoundTrip(t *testing.T) {
	be := binary.BigEndian
	b := []byte{7, 0, 9, 1}
	b = be.AppendUint32(b, 0xDEADBEEF)
	b = be.AppendUint64(b, uint64(1<<40))
	b = append(be.AppendUint32(b, 3), "abc"...)
	b = append(be.AppendUint32(b, 2), "xy"...)
	b = be.AppendUint32(b, 0) // empty byte string
	r := NewStateReader(b)
	if r.U8() != 7 || r.U16() != 9 || !r.Bool() || r.U32() != 0xDEADBEEF || r.Int() != 1<<40 {
		t.Fatal("fixed-width fields did not round-trip")
	}
	if s, p, empty := r.Str(), r.Bytes(), r.Bytes(); s != "abc" || string(p) != "xy" || empty != nil {
		t.Fatalf("counted fields = %q, %q, %v", s, p, empty)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	// Decoded bytes are copies: the blob can be reused or restored again.
	r = NewStateReader(b[16:])
	r.Str()
	p := r.Bytes()
	b[len(b)-6] = 'Z'
	if string(p) != "xy" {
		t.Fatal("Bytes aliases the blob")
	}
}

func TestStateReaderShortReadIsSticky(t *testing.T) {
	r := NewStateReader([]byte{0, 0, 0, 1, 2, 3})
	if v := r.U64(); v != 0 {
		t.Fatalf("short read = %d, want 0", v)
	}
	// The bytes a count would have read are gone with the short read.
	if n := r.Count(1); n != 0 || r.U8() != 0 || r.Done() == nil {
		t.Fatal("a short read did not stick")
	}
}

func TestStateReaderCountBoundsAllocation(t *testing.T) {
	b := binary.BigEndian.AppendUint32(nil, 4)
	b = append(b, make([]byte, 15)...)
	r := NewStateReader(b)
	if n := r.Count(4); n != 0 || r.Done() == nil {
		t.Fatalf("count of 4 records of 4 bytes from 15 bytes = %d, %v", n, r.Done())
	}
	r = NewStateReader(append(b, 0))
	if n := r.Count(4); n != 4 {
		t.Fatalf("count of 4 records of 4 bytes from 16 bytes = %d", n)
	}
	if r.Done() == nil {
		t.Fatal("Done accepted 16 unread bytes")
	}
	r.take(16)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[int]string{5: "", -1: "", 3: "", 9: ""}
	keys := SortedKeys(nil, m)
	if !reflect.DeepEqual(keys, []int{-1, 3, 5, 9}) {
		t.Fatalf("keys = %v", keys)
	}
	if n := testing.AllocsPerRun(100, func() { keys = SortedKeys(keys, m) }); n != 0 {
		t.Fatalf("SortedKeys into a reused slice allocates %v objects, want 0", n)
	}
}
