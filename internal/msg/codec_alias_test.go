package msg

import (
	"bytes"
	"testing"
)

// The nosharedref analyzer forbids reference payloads in msg.Args at
// compile time; these tests pin down the complementary runtime
// property the codec provides for the one reference kind it does
// allow: every []byte is copied on both encode and decode, so no
// decoded value aliases the owning domain's pages and no caller can
// retroactively rewrite a stored log entry.

// TestDecodeArgsCopiesBytesOutOfBuffer mutates a decoded []byte and
// checks the encoded buffer — the stand-in for domain pages — is
// untouched, and vice versa.
func TestDecodeArgsCopiesBytesOutOfBuffer(t *testing.T) {
	payload := []byte{1, 2, 3, 4}
	enc, err := EncodeArgs(Args{"name", payload})
	if err != nil {
		t.Fatal(err)
	}

	// Encode must have copied: mutating the source slice afterwards
	// must not alter what decodes.
	payload[0] = 0xFF
	dec, err := DecodeArgs(enc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.Bytes(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("decoded bytes %v changed by post-encode mutation of the source", got)
	}

	// Decode must have copied: scribbling on the decoded slice must
	// not alter the encoded buffer, and a fresh decode must still see
	// the original value.
	before := append([]byte(nil), enc...)
	got[0], got[3] = 0xAA, 0xBB
	if !bytes.Equal(enc, before) {
		t.Fatal("mutating a decoded []byte reached back into the encoded buffer")
	}
	dec2, err := DecodeArgs(enc)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := dec2.Bytes(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, []byte{1, 2, 3, 4}) {
		t.Fatalf("re-decode returned %v after mutation of an earlier decode", got2)
	}
}

// TestLogEntriesImmuneToViewMutation logs a call with []byte argument,
// result, and outbound payloads, mutates every byte slice the
// RecordView hands out, and asserts a second Entries() — what
// encapsulated restoration would replay — is byte-for-byte unchanged.
func TestLogEntriesImmuneToViewMutation(t *testing.T) {
	d := newTestDomain(t)
	lg := d.Log()

	rec, err := lg.BeginInbound(1, "write", Args{"fd:3", []byte("argument")})
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.AppendOutboundTo(rec, "ninep", "p9_write", mustEncode(Args{[]byte("outbound")}), ""); err != nil {
		t.Fatal(err)
	}
	if err := lg.EndInbound(rec, "fd:3", ClassTransient, Args{[]byte("result"), 8}, ""); err != nil {
		t.Fatal(err)
	}

	first, err := lg.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 1 {
		t.Fatalf("Entries len = %d, want 1", len(first))
	}

	// Scribble over every slice the view exposes, as a buggy (or
	// faulty, in the SWIFI sense) replayer might.
	scribble(first[0].Args)
	scribble(first[0].Rets)
	scribble(first[0].Outbound[0].Rets)

	second, err := lg.Entries()
	if err != nil {
		t.Fatal(err)
	}
	wantArgs, _ := second[0].Args.Bytes(1)
	wantRets, _ := second[0].Rets.Bytes(0)
	wantOut, _ := second[0].Outbound[0].Rets.Bytes(0)
	if !bytes.Equal(wantArgs, []byte("argument")) ||
		!bytes.Equal(wantRets, []byte("result")) ||
		!bytes.Equal(wantOut, []byte("outbound")) {
		t.Fatalf("log replay changed after view mutation: args=%q rets=%q outbound=%q",
			wantArgs, wantRets, wantOut)
	}
}

// TestPushedArgsImmuneToCallerMutation pushes a message whose []byte
// argument the caller keeps mutating, and asserts the pulled copy saw
// the value at Push time: the sender cannot rewrite an in-flight
// message in the receiver's domain.
func TestPushedArgsImmuneToCallerMutation(t *testing.T) {
	d := newTestDomain(t)
	buf := []byte("at-push-time")
	if err := d.Push(&Message{Seq: 9, Fn: "write", Args: Args{buf}}); err != nil {
		t.Fatal(err)
	}
	copy(buf, "REWRITTEN!!!")
	out, ok := d.Pull()
	if !ok {
		t.Fatal("Pull returned nothing")
	}
	got, err := out.Args.Bytes(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("at-push-time")) {
		t.Fatalf("pulled args %q: sender mutation reached the receiver's domain", got)
	}
}

// TestPulledArgsSurviveScratchReuse: the domain encodes and stages every
// payload through two scratch buffers it reuses. Args handed out by one
// Pull must not change when later Push, Pull and Entries calls on the
// same domain overwrite that scratch, and scribbling on them must not
// reach the log.
func TestPulledArgsSurviveScratchReuse(t *testing.T) {
	d := newTestDomain(t)
	lg := d.Log()
	rec, err := lg.BeginInbound(1, "write", Args{"fd:3", []byte("logged-argument")})
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.EndInbound(rec, "fd:3", ClassTransient, Args{[]byte("logged-result")}, ""); err != nil {
		t.Fatal(err)
	}

	if err := d.Push(&Message{Seq: 2, Fn: "write", Args: Args{"first", []byte("first-payload")}}); err != nil {
		t.Fatal(err)
	}
	first, ok := d.Pull()
	if !ok {
		t.Fatal("Pull returned nothing")
	}

	// Same sizes and larger, so the scratch is overwritten in place and
	// also regrown.
	for i, payload := range []string{"OTHER-PAYLOAD", "a-much-longer-payload-than-the-first-one"} {
		if err := d.Push(&Message{Seq: uint64(3 + i), Fn: "write", Args: Args{"later", []byte(payload)}}); err != nil {
			t.Fatal(err)
		}
		if _, ok := d.Pull(); !ok {
			t.Fatal("Pull returned nothing")
		}
		if _, err := lg.Entries(); err != nil {
			t.Fatal(err)
		}
	}
	name, _ := first.Args.Str(0)
	got, _ := first.Args.Bytes(1)
	if name != "first" || !bytes.Equal(got, []byte("first-payload")) {
		t.Fatalf("args of an earlier Pull now read %q, %q: they alias the domain's scratch", name, got)
	}

	// The other direction: a decoded view written over after the fact.
	views, err := lg.Entries()
	if err != nil {
		t.Fatal(err)
	}
	scribble(views[0].Args)
	scribble(views[0].Rets)
	for _, a := range first.Args {
		if b, ok := a.([]byte); ok {
			scribble(b)
		}
	}
	again, err := lg.Entries()
	if err != nil {
		t.Fatal(err)
	}
	wantArgs, _ := again[0].Args.Bytes(1)
	wantRets, _ := again[0].Rets.Bytes(0)
	if !bytes.Equal(wantArgs, []byte("logged-argument")) || !bytes.Equal(wantRets, []byte("logged-result")) {
		t.Fatalf("log changed after mutating decoded args: args=%q rets=%q", wantArgs, wantRets)
	}
}

// TestHandlerBytesSurviveTheNextPull follows one logged call the way the
// runtime carries it: encoded once, copied into the log and the mailbox,
// pulled into a buffer the worker reuses for every message. What the
// handler read with Bytes must not change when the worker pulls the next
// message into that buffer, and scribbling on it must not reach the log.
func TestHandlerBytesSurviveTheNextPull(t *testing.T) {
	d := newTestDomain(t)
	lg := d.Log()
	push := func(seq uint64, payload string) Ref {
		t.Helper()
		e, err := AppendArgs(nil, Args{3, []byte(payload)})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := lg.BeginInboundEncoded(seq, "write", e)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.PushEncoded(&Message{Seq: seq, Fn: "write"}, e); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	var buf []byte // the worker's
	pull := func() Encoded {
		t.Helper()
		_, args, ok := d.PullEncoded(buf)
		if !ok {
			t.Fatal("PullEncoded returned nothing")
		}
		buf = args
		return args
	}
	first := push(1, "first-payload")
	push(2, "OTHER-PAYLOAD")
	got, err := pull().Bytes(1)
	if err != nil {
		t.Fatal(err)
	}
	if second, _ := pull().Bytes(1); string(second) != "OTHER-PAYLOAD" {
		t.Fatalf("second pull read %q", second)
	}
	if string(got) != "first-payload" {
		t.Fatalf("the handler's Bytes now reads %q: it aliases the worker's buffer", got)
	}
	scribble(got)
	if err := lg.EndInbound(first, "fd:3", ClassTransient, Args{13}, ""); err != nil {
		t.Fatal(err)
	}
	views, err := lg.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if logged, _ := views[0].Args.Bytes(1); string(logged) != "first-payload" {
		t.Fatalf("log entry reads %q after the handler's copy was overwritten", logged)
	}
}

func scribble(b []byte) {
	for i := range b {
		b[i] = 0xEE
	}
}
