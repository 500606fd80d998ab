package gossip

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"vampos/internal/core"
	"vampos/internal/msg"
)

// genEntry builds a random entry over a small key/value alphabet so
// collisions (same key, concurrent clocks) actually happen.
func genEntry(rand *rand.Rand, nodes int) Entry {
	keys := []string{"a", "bb", "ccc", "k:0", "k:1"}
	clock := make([]uint64, nodes)
	for i := range clock {
		clock[i] = uint64(rand.Intn(4))
	}
	e := Entry{
		Key:     keys[rand.Intn(len(keys))],
		Clock:   clock,
		Origin:  rand.Intn(nodes),
		Deleted: rand.Intn(4) == 0,
	}
	if !e.Deleted {
		e.Val = []byte{byte('x' + rand.Intn(3)), byte(rand.Intn(8))}
	}
	return e
}

// entryTriple is a quick.Generator producing three entries for the same
// key, so merge laws are exercised where they matter.
type entryTriple struct{ A, B, C Entry }

func (entryTriple) Generate(rand *rand.Rand, size int) reflect.Value {
	t := entryTriple{A: genEntry(rand, 3), B: genEntry(rand, 3), C: genEntry(rand, 3)}
	t.B.Key = t.A.Key
	t.C.Key = t.A.Key
	return reflect.ValueOf(t)
}

func TestMergeCommutative(t *testing.T) {
	f := func(p entryTriple) bool {
		return reflect.DeepEqual(Merge(p.A, p.B), Merge(p.B, p.A))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeAssociative(t *testing.T) {
	f := func(p entryTriple) bool {
		return reflect.DeepEqual(Merge(Merge(p.A, p.B), p.C), Merge(p.A, Merge(p.B, p.C)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeIdempotent(t *testing.T) {
	f := func(p entryTriple) bool {
		return reflect.DeepEqual(Merge(p.A, p.A), p.A) &&
			reflect.DeepEqual(Merge(Merge(p.A, p.B), p.B), Merge(p.A, p.B))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// entryBatch is a quick.Generator producing a batch of random entries
// across several keys plus a permutation seed.
type entryBatch struct {
	Entries []Entry
	Seed    int64
}

func (entryBatch) Generate(rand *rand.Rand, size int) reflect.Value {
	n := 1 + rand.Intn(12)
	b := entryBatch{Entries: make([]Entry, n), Seed: rand.Int63()}
	for i := range b.Entries {
		b.Entries[i] = genEntry(rand, 3)
	}
	return reflect.ValueOf(b)
}

// snapshot renders a table in canonical encoded form for comparison.
func snapshot(table map[string]Entry) []byte {
	entries := make([]Entry, 0, len(table))
	for _, e := range table {
		entries = append(entries, e)
	}
	SortEntries(entries)
	return EncodeEntries(entries)
}

// TestDeltaApplyEqualsFullMerge: applying the entries one at a time in
// any interleaving converges to the same table as one full-state merge
// — the property that makes delta flooding and anti-entropy sync
// interchangeable.
func TestDeltaApplyEqualsFullMerge(t *testing.T) {
	f := func(b entryBatch) bool {
		full := make(map[string]Entry)
		MergeState(full, b.Entries)

		perm := rand.New(rand.NewSource(b.Seed)).Perm(len(b.Entries))
		delta := make(map[string]Entry)
		for _, i := range perm {
			MergeState(delta, []Entry{b.Entries[i]})
		}
		return reflect.DeepEqual(snapshot(full), snapshot(delta))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	f := func(b entryBatch) bool {
		enc := EncodeEntries(b.Entries)
		dec, err := DecodeEntries(enc)
		if err != nil {
			return false
		}
		if len(dec) != len(b.Entries) {
			return false
		}
		for i := range dec {
			if Compare(dec[i], b.Entries[i]) != 0 || dec[i].Key != b.Entries[i].Key {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	enc := EncodeEntries([]Entry{{Key: "k", Clock: []uint64{1, 0, 0}, Val: []byte("v")}})
	for cut := 1; cut < len(enc); cut++ {
		if _, err := DecodeEntries(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeEntries(append(append([]byte(nil), enc...), 0xff)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestPutRefusesOversizedKey: a key longer than the wire format's u16
// length field must be refused at the component boundary, not silently
// truncated by EncodeEntries.
func TestPutRefusesOversizedKey(t *testing.T) {
	g := New(0, 3)
	if err := g.Init(nil); err != nil {
		t.Fatal(err)
	}
	put := g.Exports()["gsp_put"]
	if _, err := invoke(t, put, strings.Repeat("k", MaxKeyLen+1), []byte("v"), false); err == nil {
		t.Fatal("oversized key accepted")
	}
	if _, err := invoke(t, put, strings.Repeat("k", MaxKeyLen), []byte("v"), false); err != nil {
		t.Fatalf("max-length key refused: %v", err)
	}
}

// invoke runs an export on the encoding of args, as a direct call does.
func invoke(t *testing.T, h core.Handler, args ...any) (msg.Encoded, error) {
	t.Helper()
	enc, err := msg.AppendArgs(nil, args)
	if err != nil {
		t.Fatal(err)
	}
	return h(new(core.Ctx), enc)
}

// TestGetExport: gsp_get returns the key's current entry (n=1) or an
// empty payload (n=0) for an absent key.
func TestGetExport(t *testing.T) {
	g := New(0, 3)
	if err := g.Init(nil); err != nil {
		t.Fatal(err)
	}
	exp := g.Exports()
	if _, err := invoke(t, exp["gsp_put"], "k", []byte("v"), false); err != nil {
		t.Fatal(err)
	}
	rets, err := invoke(t, exp["gsp_get"], "k")
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := rets.Bytes(0)
	entries, err := DecodeEntries(payload)
	if err != nil || len(entries) != 1 || entries[0].Key != "k" || string(entries[0].Val) != "v" {
		t.Fatalf("gsp_get(k) -> %+v (err=%v)", entries, err)
	}
	rets, err = invoke(t, exp["gsp_get"], "absent")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := rets.Int(1); n != 0 {
		t.Fatalf("gsp_get(absent) n=%d, want 0", n)
	}
}

// TestNextSupersedes: a clock minted by Next always beats the entry it
// was issued against, and beats any entry with a lower or equal sum.
func TestNextSupersedes(t *testing.T) {
	f := func(p entryTriple) bool {
		next := Entry{
			Key:    p.A.Key,
			Clock:  Next(p.A.Clock, 1, 3),
			Origin: 1,
			Val:    []byte("w"),
		}
		return Compare(next, p.A) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
