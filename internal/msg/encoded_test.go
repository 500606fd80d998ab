package msg

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// quickArgs is a random argument list over every kind the codec encodes.
type quickArgs Args

func (quickArgs) Generate(r *rand.Rand, size int) reflect.Value {
	args := make(quickArgs, r.Intn(6))
	for i := range args {
		switch r.Intn(8) {
		case 0:
			args[i] = nil
		case 1:
			args[i] = r.Intn(2) == 1
		case 2:
			args[i] = int(r.Int63() - r.Int63())
		case 3:
			args[i] = r.Int63() - r.Int63()
		case 4:
			args[i] = r.Uint64()
		case 5:
			args[i] = r.NormFloat64()
		case 6:
			args[i] = string(randBytes(r, size))
		case 7:
			args[i] = randBytes(r, size)
		}
	}
	return reflect.ValueOf(args)
}

func randBytes(r *rand.Rand, size int) []byte {
	b := make([]byte, r.Intn(size+1))
	r.Read(b)
	return b
}

// sameResult reports whether two accessor results agree exactly: the
// same value (a nil and an empty slice differ) and the same error text.
func sameResult(v1 any, err1 error, v2 any, err2 error) bool {
	if (err1 == nil) != (err2 == nil) || err1 != nil && err1.Error() != err2.Error() {
		return false
	}
	return reflect.DeepEqual(v1, v2)
}

// accessorsAgree checks every accessor at index i on e against the same
// accessor on args, the decoded form of e.
func accessorsAgree(t *testing.T, e Encoded, args Args, i int) {
	t.Helper()
	check := func(name string, v1 any, err1 error, v2 any, err2 error) {
		t.Helper()
		if !sameResult(v1, err1, v2, err2) {
			t.Fatalf("%s(%d) on % x: Encoded gives %#v, %v; Args gives %#v, %v", name, i, []byte(e), v1, err1, v2, err2)
		}
	}
	n1, err1 := e.Int(i)
	n2, err2 := args.Int(i)
	check("Int", n1, err1, n2, err2)
	i1, err1 := e.Int64(i)
	i2, err2 := args.Int64(i)
	check("Int64", i1, err1, i2, err2)
	u1, err1 := e.Uint64(i)
	u2, err2 := args.Uint64(i)
	check("Uint64", u1, err1, u2, err2)
	s1, err1 := e.Str(i)
	s2, err2 := args.Str(i)
	check("Str", s1, err1, s2, err2)
	b1, err1 := e.Bytes(i)
	b2, err2 := args.Bytes(i)
	check("Bytes", b1, err1, b2, err2)
	t1, err1 := e.Bool(i)
	t2, err2 := args.Bool(i)
	check("Bool", t1, err1, t2, err2)
	appendAgrees(t, e, i)
}

// appendAgrees checks AppendBytes at index i on e against Bytes: the
// same bytes after what dst held, kept intact, or the same error with
// dst returned as it was.
func appendAgrees(t testing.TB, e Encoded, i int) {
	t.Helper()
	want, werr := e.Bytes(i)
	dst := append(make([]byte, 0, 8), "dst"...)
	got, err := e.AppendBytes(dst, i)
	if !sameResult(nil, err, nil, werr) {
		t.Fatalf("AppendBytes(%d) on % x: error %v, Bytes: %v", i, []byte(e), err, werr)
	}
	if string(got[:3]) != "dst" || !bytes.Equal(got[3:], want) || err != nil && len(got) != 3 {
		t.Fatalf("AppendBytes(%d) on % x = %q, %v; Bytes gives %q, %v", i, []byte(e), got, err, want, werr)
	}
}

// TestEncodedAccessorsMatchDecodedArgs: reading an encoding in place is
// reading its decoded Args — at every index, one past the end included,
// for every accessor, errors included — and AppendBytes is Bytes into
// the caller's buffer.
func TestEncodedAccessorsMatchDecodedArgs(t *testing.T) {
	f := func(in quickArgs) bool {
		e, err := AppendArgs(nil, Args(in))
		if err != nil {
			t.Fatal(err)
		}
		args, err := DecodeArgs(e)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := e.Len(); err != nil || n != len(in) {
			t.Fatalf("parsed %d args, %v, want %d", n, err, len(in))
		}
		for i := 0; i <= len(in); i++ {
			accessorsAgree(t, e, args, i)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodedStrAndBytesAreCopies: what Str and Bytes return survives
// the buffer they were read from being overwritten.
func TestEncodedStrAndBytesAreCopies(t *testing.T) {
	e, err := AppendArgs(nil, Args{"name", []byte("payload")})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := e.Str(0)
	b, _ := e.Bytes(1)
	scribble(e)
	if s != "name" || string(b) != "payload" {
		t.Fatalf("read %q, %q, then the buffer was overwritten and they changed", s, b)
	}
}

// TestAppendArgsKeepsNothing: encoding a ...any list that holds an int
// too large for the runtime's static boxes and a []byte allocates
// nothing once the buffer has grown — the arguments never reach the
// heap, on the error path included.
func TestAppendArgsKeepsNothing(t *testing.T) {
	payload := make([]byte, 64)
	buf := make([]byte, 0, 128)
	encode := func(args ...any) {
		if _, err := AppendArgs(buf[:0], args); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, func() { encode(4096, payload) }); n != 0 {
		t.Fatalf("%v allocations to encode (4096, []byte), want 0", n)
	}
}
