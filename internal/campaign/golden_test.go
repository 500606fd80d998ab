package campaign

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-campaign-golden", false,
	"re-record internal/campaign/testdata/golden/*.json from this run")

const goldenDir = "testdata/golden"

// checkGolden compares a matrix's JSON, byte for byte, with the golden
// recorded for the calling test (testdata/golden/<test>.json). The
// matrices are pure functions of the seed and the space, so a moved byte
// is a behaviour change, never noise: re-record with
// -update-campaign-golden only when the change is meant to move it.
func checkGolden(t *testing.T, got []byte) {
	t.Helper()
	path := filepath.Join(goldenDir, t.Name()+".json")
	if *updateGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (re-record with -update-campaign-golden): %v", err)
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
			t.Fatalf("matrix differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}

// TestEveryFaultKindHasAGolden: every fault kind the campaign can inject
// is pinned by at least one recorded matrix, so no kind's trial can change
// behaviour unnoticed.
func TestEveryFaultKindHasAGolden(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(goldenDir, "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no goldens under %s (err=%v)", goldenDir, err)
	}
	seen := map[FaultName]bool{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var m Matrix
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		for _, c := range m.Cells {
			seen[c.Fault] = true
		}
	}
	for _, f := range AllFaults() {
		if !seen[f] {
			t.Errorf("fault kind %q appears in no golden under %s", f, goldenDir)
		}
	}
}

// TestErrnoLeakWildWriteSlice: the three kinds no other slice runs. A
// transient errno and a confined wild write must not reboot anything, a
// leak is cleared by one proactive reboot, and on VIRTIO — which refuses
// that reboot — the leak cell is expected-unrecoverable.
func TestErrnoLeakWildWriteSlice(t *testing.T) {
	m, err := Run(Options{Space: SpaceOptions{
		Workloads:  []string{"sqlite"},
		Configs:    []string{"das"},
		Components: []string{"vfs", "virtio"},
		Faults:     []FaultName{FaultErrno, FaultLeak, FaultWildWrite},
	}, Seed: 5, Parallel: 2})
	if err != nil {
		t.Fatalf("campaign run: %v", err)
	}
	if len(m.Cells) != 6 {
		t.Fatalf("slice has %d cells, want 6", len(m.Cells))
	}
	for _, c := range m.Cells {
		want := VerdictPass
		if c.Component == "virtio" && c.Fault == FaultLeak {
			want = VerdictExpected
		}
		if c.Verdict != want {
			t.Errorf("%s: verdict %s, want %s (detail: %s)", c.TrialID, c.Verdict, want, c.Detail)
		}
	}
	checkGolden(t, matrixJSON(t, m))
}
