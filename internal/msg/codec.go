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
	"encoding/binary"
	"fmt"
	"math"
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
	return appendArgs(make([]byte, 0, 16+8*len(args)), args)
}

// appendArgs appends the encoding of args to buf.
func appendArgs(buf []byte, args Args) ([]byte, error) {
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
		return nil, fmt.Errorf("unsupported kind %T", a)
	}
}

// DecodeArgs reverses EncodeArgs.
func DecodeArgs(p []byte) (Args, error) {
	n, off := binary.Uvarint(p)
	if off <= 0 {
		return nil, fmt.Errorf("msg: decode: bad length header")
	}
	if n > uint64(len(p)) { // each element takes at least one byte
		return nil, fmt.Errorf("msg: decode: impossible arg count %d", n)
	}
	args := make(Args, 0, n)
	rest := p[off:]
	for i := uint64(0); i < n; i++ {
		var (
			v   any
			err error
		)
		v, rest, err = readVal(rest)
		if err != nil {
			return nil, fmt.Errorf("msg: decode arg %d: %w", i, err)
		}
		args = append(args, v)
	}
	return args, nil
}

func readVal(p []byte) (any, []byte, error) {
	if len(p) == 0 {
		return nil, nil, fmt.Errorf("truncated value")
	}
	k, p := kindTag(p[0]), p[1:]
	switch k {
	case kindNil:
		return nil, p, nil
	case kindBool:
		if len(p) < 1 {
			return nil, nil, fmt.Errorf("truncated bool")
		}
		return p[0] != 0, p[1:], nil
	case kindInt:
		v, off := binary.Varint(p)
		if off <= 0 {
			return nil, nil, fmt.Errorf("bad int")
		}
		return int(v), p[off:], nil
	case kindInt64:
		v, off := binary.Varint(p)
		if off <= 0 {
			return nil, nil, fmt.Errorf("bad int64")
		}
		return v, p[off:], nil
	case kindUint64:
		v, off := binary.Uvarint(p)
		if off <= 0 {
			return nil, nil, fmt.Errorf("bad uint64")
		}
		return v, p[off:], nil
	case kindFloat64:
		if len(p) < 8 {
			return nil, nil, fmt.Errorf("truncated float64")
		}
		return math.Float64frombits(binary.BigEndian.Uint64(p)), p[8:], nil
	case kindString:
		n, off := binary.Uvarint(p)
		if off <= 0 || uint64(len(p)-off) < n {
			return nil, nil, fmt.Errorf("bad string")
		}
		return string(p[off : off+int(n)]), p[off+int(n):], nil
	case kindBytes:
		n, off := binary.Uvarint(p)
		if off <= 0 || uint64(len(p)-off) < n {
			return nil, nil, fmt.Errorf("bad bytes")
		}
		// The copy (like string()'s above) is load-bearing: p may be a
		// window into the owning domain's pages, and a decoded value
		// that aliased them would let the receiver mutate the sender's
		// log entry after the fact. nosharedref enforces the matching
		// discipline on the encode side; codec_alias_test.go pins both.
		b := make([]byte, n)
		copy(b, p[off:off+int(n)])
		return b, p[off+int(n):], nil
	default:
		return nil, nil, fmt.Errorf("unknown kind tag %d", k)
	}
}

// Int extracts args[i] as an int, accepting int and int64 encodings.
func (a Args) Int(i int) (int, error) {
	if i >= len(a) {
		return 0, fmt.Errorf("msg: arg %d missing (have %d)", i, len(a))
	}
	switch v := a[i].(type) {
	case int:
		return v, nil
	case int64:
		return int(v), nil
	default:
		return 0, fmt.Errorf("msg: arg %d is %T, want int", i, a[i])
	}
}

// Int64 extracts args[i] as an int64.
func (a Args) Int64(i int) (int64, error) {
	if i >= len(a) {
		return 0, fmt.Errorf("msg: arg %d missing (have %d)", i, len(a))
	}
	switch v := a[i].(type) {
	case int:
		return int64(v), nil
	case int64:
		return v, nil
	default:
		return 0, fmt.Errorf("msg: arg %d is %T, want int64", i, a[i])
	}
}

// Uint64 extracts args[i] as a uint64.
func (a Args) Uint64(i int) (uint64, error) {
	if i >= len(a) {
		return 0, fmt.Errorf("msg: arg %d missing (have %d)", i, len(a))
	}
	v, ok := a[i].(uint64)
	if !ok {
		return 0, fmt.Errorf("msg: arg %d is %T, want uint64", i, a[i])
	}
	return v, nil
}

// Str extracts args[i] as a string.
func (a Args) Str(i int) (string, error) {
	if i >= len(a) {
		return "", fmt.Errorf("msg: arg %d missing (have %d)", i, len(a))
	}
	v, ok := a[i].(string)
	if !ok {
		return "", fmt.Errorf("msg: arg %d is %T, want string", i, a[i])
	}
	return v, nil
}

// Bytes extracts args[i] as a []byte; nil is returned for a nil element.
func (a Args) Bytes(i int) ([]byte, error) {
	if i >= len(a) {
		return nil, fmt.Errorf("msg: arg %d missing (have %d)", i, len(a))
	}
	if a[i] == nil {
		return nil, nil
	}
	v, ok := a[i].([]byte)
	if !ok {
		return nil, fmt.Errorf("msg: arg %d is %T, want []byte", i, a[i])
	}
	return v, nil
}

// Bool extracts args[i] as a bool.
func (a Args) Bool(i int) (bool, error) {
	if i >= len(a) {
		return false, fmt.Errorf("msg: arg %d missing (have %d)", i, len(a))
	}
	v, ok := a[i].(bool)
	if !ok {
		return false, fmt.Errorf("msg: arg %d is %T, want bool", i, a[i])
	}
	return v, nil
}
