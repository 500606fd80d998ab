package msg

import (
	"math"
	"testing"

	"vampos/internal/mem"
)

// fuzzEqual is equalVal plus NaN tolerance: the fuzzer will find NaN
// float64s, which round-trip bit-exactly but compare unequal to
// themselves.
func fuzzEqual(a, b any) bool {
	af, aok := a.(float64)
	bf, bok := b.(float64)
	if aok && bok && math.IsNaN(af) && math.IsNaN(bf) {
		return true
	}
	return equalVal(a, b)
}

// FuzzCodecRoundTrip checks that every Args value built from the codec's
// supported kinds encodes, and that decoding the encoding reproduces it
// exactly — the invariant encapsulated restoration leans on: a replayed
// call sees byte-identical arguments and results.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(int64(0), uint64(0), 0.0, "", []byte(nil), false)
	f.Add(int64(5), uint64(7), 3.14159, "open", []byte("payload"), true)
	f.Add(int64(math.MinInt64), uint64(math.MaxUint64), math.Inf(-1), "/var/www/index.html", []byte{0, 255, 10}, true)
	f.Add(int64(-1), uint64(1<<63), math.NaN(), "日本語", []byte("四十二"), false)
	f.Fuzz(func(t *testing.T, i64 int64, u uint64, fl float64, s string, b []byte, ok bool) {
		in := Args{int(i64), i64, u, fl, s, b, ok, nil}
		enc, err := EncodeArgs(in)
		if err != nil {
			t.Fatalf("EncodeArgs(%#v): %v", in, err)
		}
		out, err := DecodeArgs(enc)
		if err != nil {
			t.Fatalf("DecodeArgs round trip: %v", err)
		}
		if len(out) != len(in) {
			t.Fatalf("decoded %d args, want %d", len(out), len(in))
		}
		for i := range in {
			if !fuzzEqual(out[i], in[i]) {
				t.Fatalf("arg %d = %#v, want %#v", i, out[i], in[i])
			}
		}
	})
}

// FuzzLogDecode poisons the encoded bytes a log record stored in its
// message domain's pages — what a wild write from a faulty component
// would do if the domain's protection key failed — and checks that
// decoding the log degrades to an error, never a panic. The raw decoder
// gets the same arbitrary bytes directly.
func FuzzLogDecode(f *testing.F) {
	f.Add([]byte(nil), uint8(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 1}, uint8(0))
	f.Add([]byte{1, 99}, uint8(1))
	f.Add([]byte{1, 7, 200, 'x'}, uint8(2))
	f.Add([]byte("AAAAAAAAAAAAAAAA"), uint8(3))
	f.Fuzz(func(t *testing.T, corrupt []byte, skew uint8) {
		m := mem.New(256 * mem.PageSize)
		d, err := NewDomain("vfs", m, 7, 16)
		if err != nil {
			t.Fatal(err)
		}
		l := d.Log()
		r, err := l.BeginInbound(1, "open", Args{"/www/index.html", 0x42})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.AppendOutboundTo(r, "9pfs", "uk_9pfs_open", mustEncode(Args{7, []byte("fid")}), ""); err != nil {
			t.Fatal(err)
		}
		if err := l.EndInbound(r, "fd:3", ClassOpener, Args{3}, ""); err != nil {
			t.Fatal(err)
		}
		logCall(t, l, 2, "write", Args{3, []byte("some body bytes")}, "fd:3", ClassTransient)
		// Overwrite a window of the first record's stored argument bytes.
		e, _ := l.live(r)
		if e.argsN > 0 && len(corrupt) > 0 {
			off := int(skew) % e.argsN
			w := corrupt
			if len(w) > e.argsN-off {
				w = w[:e.argsN-off]
			}
			if len(w) > 0 {
				if err := m.HostWrite(e.args+mem.Addr(off), w); err != nil {
					t.Fatal(err)
				}
			}
		}
		// The poisoned log must decode to an error or well-formed views.
		if entries, err := l.Entries(); err == nil {
			for _, v := range entries {
				_, _ = v.Args, v.Rets
			}
		}
		// The raw decoder must also survive the bytes as-is.
		_, _ = DecodeArgs(corrupt)
	})
}

// FuzzLogOps reads arbitrary bytes as a log history, three bytes a step
// (decodeLogOps), and runs it against the table log and refLog with the
// oracles of TestLogTableMatchesReference after every step.
func FuzzLogOps(f *testing.F) {
	f.Add([]byte(nil))
	// begin, outbound, end as an opener, begin, end as a transient,
	// canceler on the opener's session, reuse of the freed slot, then a
	// stale end and outbound through the first handles.
	f.Add([]byte{0, 1, 0, 2, 0, 1, 3, 0, 5, 0, 2, 0, 3, 1, 9, 3, 0, 13, 0, 3, 0, 3, 1, 0, 2, 1, 0})
	f.Add([]byte{0, 0, 0, 1, 1, 1, 6, 128, 0, 10, 1, 7, 7, 255, 0, 8, 1, 0, 11, 0, 0, 0, 2, 2, 3, 2, 45})
	f.Fuzz(func(t *testing.T, p []byte) {
		if len(p) > 3*256 {
			p = p[:3*256]
		}
		runLogOps(t, decodeLogOps(p))
	})
}

// FuzzEncodedAccessors reads arbitrary bytes in place, the way a handler
// reads its arguments and a caller its results: no accessor panics at any
// index, the in-place parse and every accessor fail exactly when
// DecodeArgs does, with its error, on a well-formed encoding every
// accessor returns what the same accessor returns on DecodeArgs's result,
// and AppendBytes agrees with Bytes on every input.
func FuzzEncodedAccessors(f *testing.F) {
	for _, args := range []Args{{}, {nil, true, 7, int64(-3), uint64(9)}, {1.5, "open", []byte("payload"), []byte{}}} {
		p, err := EncodeArgs(args)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	f.Add([]byte{})
	f.Add([]byte{2, 1})
	f.Add([]byte{1, 99})
	f.Add([]byte{1, 7, 10, 'x'})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 1})
	f.Fuzz(func(t *testing.T, p []byte) {
		e := Encoded(p)
		args, derr := DecodeArgs(p)
		n, perr := e.Len()
		if !sameResult(nil, derr, nil, perr) {
			t.Fatalf("DecodeArgs error %v, in-place parse error %v", derr, perr)
		}
		if derr == nil && n != len(args) {
			t.Fatalf("parsed %d args in place, DecodeArgs gave %d", n, len(args))
		}
		if _, err := e.Int(-1); err == nil {
			t.Fatal("Int(-1) succeeded")
		}
		for i := 0; i <= len(args)+1; i++ {
			if derr == nil {
				accessorsAgree(t, e, args, i)
				continue
			}
			if _, err := e.Int(i); !sameResult(nil, err, nil, derr) {
				t.Fatalf("Int(%d) on malformed % x: %v, DecodeArgs: %v", i, p, err, derr)
			}
			if _, err := e.Bytes(i); !sameResult(nil, err, nil, derr) {
				t.Fatalf("Bytes(%d) on malformed % x: %v, DecodeArgs: %v", i, p, err, derr)
			}
			appendAgrees(t, e, i)
		}
	})
}
