package main

import (
	"os"
	"path/filepath"
	"testing"

	"vampos/internal/golden"
)

// TestDemoGolden runs all seven scenes and compares what they print with
// testdata/demo.golden. Every number the demo prints is virtual time or
// a count, so the output is deterministic: a moved byte is a scene that
// changed its story, and a scene that fails returns its error.
func TestDemoGolden(t *testing.T) {
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	runErr := run()
	os.Stdout = stdout
	if runErr != nil {
		t.Fatal(runErr)
	}
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, filepath.Join("testdata", "demo.golden"), got)
}
