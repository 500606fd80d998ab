// Package msg implements VampOS message domains: the isolated memory
// regions through which components exchange function calls and in which
// the function-call and return-value logs for encapsulated restoration
// live (paper Fig. 4).
//
// A message domain is backed by pages in the guest address space tagged
// with the domain's own protection key, and entries are stored encoded in
// those pages, so both the space overhead the paper measures (Table III,
// Fig. 7b) and the isolation of logs from faulty components (§V-D) are
// real properties of the model rather than bookkeeping fictions.
package msg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
)

// Args carries the arguments or results of a cross-component call.
// Elements are restricted to the kinds the codec understands: nil, bool,
// int, int64, uint64, float64, string and []byte — the vocabulary of the
// POSIX-ish interfaces in Table II.
type Args []any

type kindTag byte

const (
	kindNil kindTag = iota + 1
	kindBool
	kindInt
	kindInt64
	kindUint64
	kindFloat64
	kindString
	kindBytes
)

// EncodeArgs serialises args into a self-describing byte string.
func EncodeArgs(args Args) ([]byte, error) {
	return AppendArgs(make([]byte, 0, 16+8*len(args)), args)
}

// AppendArgs appends the encoding of args to buf. It keeps no reference
// to args, so a caller's ...any list can stay on its stack.
func AppendArgs(buf []byte, args Args) (Encoded, error) {
	buf = binary.AppendUvarint(buf, uint64(len(args)))
	for i, a := range args {
		var err error
		buf, err = appendVal(buf, a)
		if err != nil {
			return nil, fmt.Errorf("msg: encode arg %d: %w", i, err)
		}
	}
	return buf, nil
}

func appendVal(buf []byte, a any) ([]byte, error) {
	switch v := a.(type) {
	case nil:
		return append(buf, byte(kindNil)), nil
	case bool:
		buf = append(buf, byte(kindBool))
		if v {
			return append(buf, 1), nil
		}
		return append(buf, 0), nil
	case int:
		buf = append(buf, byte(kindInt))
		return binary.AppendVarint(buf, int64(v)), nil
	case int64:
		buf = append(buf, byte(kindInt64))
		return binary.AppendVarint(buf, v), nil
	case uint64:
		buf = append(buf, byte(kindUint64))
		return binary.AppendUvarint(buf, v), nil
	case float64:
		buf = append(buf, byte(kindFloat64))
		return binary.BigEndian.AppendUint64(buf, math.Float64bits(v)), nil
	case string:
		buf = append(buf, byte(kindString))
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		return append(buf, v...), nil
	case []byte:
		buf = append(buf, byte(kindBytes))
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		return append(buf, v...), nil
	default:
		// reflect.TypeOf reads only a's type word: formatting a itself
		// (%T) would move every argument of every call to the heap.
		return nil, fmt.Errorf("unsupported kind %v", reflect.TypeOf(a))
	}
}

// DecodeArgs reverses EncodeArgs, boxing every value.
func DecodeArgs(p []byte) (Args, error) {
	n, rest, err := readCount(p)
	if err != nil {
		return nil, err
	}
	args := make(Args, 0, n)
	for i := 0; i < n; i++ {
		var v value
		if v, rest, err = readVal(rest); err != nil {
			return nil, fmt.Errorf("msg: decode arg %d: %w", i, err)
		}
		args = append(args, v.box())
	}
	return args, nil
}

// readCount reads the element count in front of an encoding.
func readCount(p []byte) (int, []byte, error) {
	n, off := binary.Uvarint(p)
	if off <= 0 {
		return 0, nil, fmt.Errorf("msg: decode: bad length header")
	}
	if n > uint64(len(p)) { // each element takes at least one byte
		return 0, nil, fmt.Errorf("msg: decode: impossible arg count %d", n)
	}
	return int(n), p[off:], nil
}

// value is one element as the accessors see it: num holds a bool, an
// integer or a float64's bits; an encoded string's or []byte's contents
// stay in place in raw; elem is a decoded element itself.
type value struct {
	kind kindTag
	num  uint64
	raw  []byte
	elem any
}

// readVal is the codec's one value parser: it reads the element at the
// front of p without copying anything.
func readVal(p []byte) (value, []byte, error) {
	if len(p) == 0 {
		return value{}, nil, fmt.Errorf("truncated value")
	}
	v := value{kind: kindTag(p[0])}
	p = p[1:]
	switch v.kind {
	case kindNil:
		return v, p, nil
	case kindBool:
		if len(p) < 1 {
			return value{}, nil, fmt.Errorf("truncated bool")
		}
		if p[0] != 0 {
			v.num = 1
		}
		return v, p[1:], nil
	case kindInt, kindInt64:
		n, off := binary.Varint(p)
		if off <= 0 {
			return value{}, nil, fmt.Errorf("bad %s", kindNames[v.kind])
		}
		v.num = uint64(n)
		return v, p[off:], nil
	case kindUint64:
		n, off := binary.Uvarint(p)
		if off <= 0 {
			return value{}, nil, fmt.Errorf("bad uint64")
		}
		v.num = n
		return v, p[off:], nil
	case kindFloat64:
		if len(p) < 8 {
			return value{}, nil, fmt.Errorf("truncated float64")
		}
		v.num = binary.BigEndian.Uint64(p)
		return v, p[8:], nil
	case kindString, kindBytes:
		n, off := binary.Uvarint(p)
		if off <= 0 || uint64(len(p)-off) < n {
			if v.kind == kindBytes {
				return value{}, nil, fmt.Errorf("bad bytes")
			}
			return value{}, nil, fmt.Errorf("bad string")
		}
		v.raw = p[off : off+int(n)]
		return v, p[off+int(n):], nil
	default:
		return value{}, nil, fmt.Errorf("unknown kind tag %d", v.kind)
	}
}

// box returns an encoded v as the Go value EncodeArgs took. Strings and
// byte slices are copies: raw may be a window into the owning domain's
// pages, and a value that aliased them would let the receiver mutate the
// sender's log entry after the fact. nosharedref enforces the matching
// discipline on the encode side; codec_alias_test.go pins both.
func (v value) box() any {
	switch v.kind {
	case kindBool:
		return v.num != 0
	case kindInt:
		return int(int64(v.num))
	case kindInt64:
		return int64(v.num)
	case kindUint64:
		return v.num
	case kindFloat64:
		return math.Float64frombits(v.num)
	case kindString:
		return string(v.raw)
	case kindBytes:
		return bytes.Clone(v.raw)
	}
	return nil
}

// valueOf is readVal for a decoded element.
func valueOf(x any) value {
	v := value{elem: x}
	switch x := x.(type) {
	case nil:
		v.kind = kindNil
	case bool:
		v.kind = kindBool
		if x {
			v.num = 1
		}
	case int:
		v.kind, v.num = kindInt, uint64(x)
	case int64:
		v.kind, v.num = kindInt64, uint64(x)
	case uint64:
		v.kind, v.num = kindUint64, x
	case float64:
		v.kind = kindFloat64
	case string:
		v.kind = kindString
	case []byte:
		v.kind = kindBytes
	}
	return v
}

// kindNames spells each kind as %T spells the Go value it decodes to.
var kindNames = [...]string{
	kindNil: "<nil>", kindBool: "bool", kindInt: "int", kindInt64: "int64",
	kindUint64: "uint64", kindFloat64: "float64", kindString: "string", kindBytes: "[]uint8",
}

// is returns v, element i of n, if its kind is one of kinds.
func (v value) is(i, n int, name string, kinds ...kindTag) (value, error) {
	if i < 0 || i >= n {
		return value{}, fmt.Errorf("msg: arg %d missing (have %d)", i, n)
	}
	for _, k := range kinds {
		if v.kind == k {
			return v, nil
		}
	}
	if v.kind == 0 {
		return value{}, fmt.Errorf("msg: arg %d is %T, want %s", i, v.elem, name)
	}
	return value{}, fmt.Errorf("msg: arg %d is %s, want %s", i, kindNames[v.kind], name)
}

// Encoded is an argument or result list in its wire form, as a handler
// receives its arguments and a caller its results. Its accessors parse it
// in place and return what the same accessor returns on DecodeArgs's
// result, errors included. Only Str, Bytes and AppendBytes copy, so
// nothing they return aliases the buffer, which its owner reuses once the
// handler returns or the caller calls again.
type Encoded []byte

// at parses e whole and returns its element count and its i-th value
// (zero when there is none), or DecodeArgs's error.
func (e Encoded) at(i int) (value, int, error) {
	n, rest, err := readCount(e)
	if err != nil {
		return value{}, 0, err
	}
	var v value
	for j := 0; j < n; j++ {
		var x value
		if x, rest, err = readVal(rest); err != nil {
			return value{}, 0, fmt.Errorf("msg: decode arg %d: %w", j, err)
		}
		if j == i {
			v = x
		}
	}
	return v, n, nil
}

func (e Encoded) want(i int, name string, kinds ...kindTag) (value, error) {
	v, n, err := e.at(i)
	if err != nil {
		return value{}, err
	}
	return v.is(i, n, name, kinds...)
}

func (a Args) want(i int, name string, kinds ...kindTag) (value, error) {
	var v value
	if i >= 0 && i < len(a) {
		v = valueOf(a[i])
	}
	return v.is(i, len(a), name, kinds...)
}

// Int extracts args[i] as an int, accepting int and int64 encodings.
func (a Args) Int(i int) (int, error) {
	v, err := a.want(i, "int", kindInt, kindInt64)
	return int(int64(v.num)), err
}

// Int is Args.Int in place.
func (e Encoded) Int(i int) (int, error) {
	v, err := e.want(i, "int", kindInt, kindInt64)
	return int(int64(v.num)), err
}

// Int64 extracts args[i] as an int64.
func (a Args) Int64(i int) (int64, error) {
	v, err := a.want(i, "int64", kindInt, kindInt64)
	return int64(v.num), err
}

// Int64 is Args.Int64 in place.
func (e Encoded) Int64(i int) (int64, error) {
	v, err := e.want(i, "int64", kindInt, kindInt64)
	return int64(v.num), err
}

// Uint64 extracts args[i] as a uint64.
func (a Args) Uint64(i int) (uint64, error) {
	v, err := a.want(i, "uint64", kindUint64)
	return v.num, err
}

// Uint64 is Args.Uint64 in place.
func (e Encoded) Uint64(i int) (uint64, error) {
	v, err := e.want(i, "uint64", kindUint64)
	return v.num, err
}

// Str extracts args[i] as a string.
func (a Args) Str(i int) (string, error) {
	v, err := a.want(i, "string", kindString)
	s, _ := v.elem.(string)
	return s, err
}

// Str is Args.Str in place; the string is a copy.
func (e Encoded) Str(i int) (string, error) {
	v, err := e.want(i, "string", kindString)
	return string(v.raw), err
}

// Bytes is Args.Bytes in place; the slice is a copy.
func (e Encoded) Bytes(i int) ([]byte, error) {
	v, err := e.want(i, "[]byte", kindBytes, kindNil)
	return bytes.Clone(v.raw), err
}

// AppendBytes is Bytes into a buffer the caller owns: it appends element
// i's bytes to dst, and returns dst itself on an error or a nil element.
func (e Encoded) AppendBytes(dst []byte, i int) ([]byte, error) {
	v, err := e.want(i, "[]byte", kindBytes, kindNil)
	return append(dst, v.raw...), err
}

// Len returns the number of elements in e, or DecodeArgs's error.
func (e Encoded) Len() (int, error) {
	_, n, err := e.at(-1)
	return n, err
}

// Bool extracts args[i] as a bool.
func (a Args) Bool(i int) (bool, error) {
	v, err := a.want(i, "bool", kindBool)
	return v.num != 0, err
}

// Bool is Args.Bool in place.
func (e Encoded) Bool(i int) (bool, error) {
	v, err := e.want(i, "bool", kindBool)
	return v.num != 0, err
}
