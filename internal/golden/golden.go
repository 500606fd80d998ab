// Package golden holds the compare-or-rewrite step every golden-file
// test in the tree shares, and the CPU budget the golden-heavy test
// binaries run within. A golden is the recorded output of a
// deterministic run (a campaign matrix, a recovery fingerprint, a bench
// figure's virtual columns), so a moved byte is a behaviour change,
// never noise.
//
// One flag re-records every golden a test binary compares against:
//
//	go test ./internal/bench ./internal/campaign ./internal/unikernel -update-golden
//
// Re-record only when a change is meant to move a number, and quote each
// moved line in the change's description; a refactor never re-records.
package golden

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update-golden", false, "re-record the golden files the tests compare against")

// Check compares got, byte for byte, with the file at path and fails t
// at the first differing line. Under -update-golden it writes got to
// path instead.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (re-record with -update-golden): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
	// Only a missing or extra final newline gets here.
	t.Fatalf("%s differs: %d bytes, want %d", path, len(got), len(want))
}
