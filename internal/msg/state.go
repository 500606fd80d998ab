package msg

import (
	"cmp"
	"encoding/binary"
	"errors"
	"slices"
)

// errState reports a malformed control-state blob.
var errState = errors.New("msg: malformed state blob")

// StateReader decodes a component's control state: the checkpoint image
// a StateSaver restores from and the blob a RuntimeKeeper reinstalls.
// Encoders write big-endian fixed-width fields with encoding/binary's
// Append functions and AppendBool, record counts and byte strings behind
// a uint32, and maps in key order (SortedKeys), so one state has one
// encoding.
//
// A blob sits in host memory between a save and a restore, so arbitrary
// bytes must come back as an error, never a panic or an allocation sized
// from a count the bytes cannot back. A read past the end is sticky: it
// yields zeros and every later count is zero, so a decoder checks Done
// once, after its last field. Every value returned is a copy, so one
// image restores many times.
type StateReader struct {
	p   []byte
	bad bool
}

// NewStateReader returns a reader over blob.
func NewStateReader(blob []byte) StateReader { return StateReader{p: blob} }

var zeros [8]byte

func (r *StateReader) take(n uint64) []byte {
	if n > uint64(len(r.p)) {
		r.p, r.bad = nil, true
		return zeros[:]
	}
	b := r.p[:n]
	r.p = r.p[n:]
	return b
}

// U8, U16, U32 and U64 read one big-endian field; Int reads a U64 and
// Bool a U8.
func (r *StateReader) U8() byte    { return r.take(1)[0] }
func (r *StateReader) U16() uint16 { return binary.BigEndian.Uint16(r.take(2)) }
func (r *StateReader) U32() uint32 { return binary.BigEndian.Uint32(r.take(4)) }
func (r *StateReader) U64() uint64 { return binary.BigEndian.Uint64(r.take(8)) }
func (r *StateReader) Int() int    { return int(r.U64()) }
func (r *StateReader) Bool() bool  { return r.U8() != 0 }

// Count reads a record count and rejects one the remaining bytes cannot
// hold at min bytes per record, bounding what the caller allocates.
func (r *StateReader) Count(min uint64) int {
	n := uint64(r.U32())
	if n*min > uint64(len(r.p)) {
		r.p, r.bad = nil, true
		return 0
	}
	return int(n)
}

// Bytes reads a counted byte string into fresh memory; nil when empty.
func (r *StateReader) Bytes() []byte {
	if n := r.Count(1); n > 0 {
		return append([]byte(nil), r.take(uint64(n))...)
	}
	return nil
}

// Str reads a counted string.
func (r *StateReader) Str() string { return string(r.take(uint64(r.Count(1)))) }

// Done reports a malformed blob once the decoder has read its last
// field: a read past the end, an impossible count, or bytes left over.
func (r *StateReader) Done() error {
	if r.bad || len(r.p) != 0 {
		return errState
	}
	return nil
}

// AppendBool appends v as one byte, the encoding Bool reads.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// SortedKeys returns m's keys in ascending order, reusing dst's storage:
// the one order a state encoder writes a map in. A caller that keeps dst
// across encodes sorts without allocating.
func SortedKeys[K cmp.Ordered, V any](dst []K, m map[K]V) []K {
	dst = dst[:0]
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}
