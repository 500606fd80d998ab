package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"vampos/internal/golden"
)

// goldenDir holds one recorded matrix per slice test, named after it.
// The matrices are pure functions of the seed and the space; re-record
// with -update-golden only when a change is meant to move one.
const goldenDir = "testdata/golden"

// goldenPath is the recorded matrix of the calling slice test.
func goldenPath(t *testing.T) string { return filepath.Join(goldenDir, t.Name()+".json") }

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
	for _, f := range faultTable {
		if !seen[f.name] {
			t.Errorf("fault kind %q appears in no golden under %s", f.name, goldenDir)
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
	golden.Check(t, goldenPath(t), matrixJSON(t, m))
}

// TestFaultRowsMatchTheirPlane: every fault row makes a kind its plane's
// runner can drive, so the runner's type assertion cannot fail.
func TestFaultRowsMatchTheirPlane(t *testing.T) {
	for _, f := range faultTable {
		k := f.kind()
		_, instance := k.(instanceKind)
		_, cluster := k.(clusterKind)
		if f.plane == onInstance && !instance || f.plane == onCluster && !cluster || instance == cluster {
			t.Errorf("fault %q: kind %T does not run on its plane alone (instance=%v cluster=%v)", f.name, k, instance, cluster)
		}
	}
}
