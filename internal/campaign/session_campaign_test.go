package campaign

import (
	"bytes"
	"testing"

	"vampos/internal/core"
	"vampos/internal/golden"
)

// sessionSpace is the sessioncrash slice the CI job runs: per-session
// fault sites on the vfs hot path of the many-connection redis workload.
func sessionSpace() SpaceOptions {
	return SpaceOptions{
		Workloads:  []string{"redis"},
		Configs:    []string{"das"},
		Components: []string{"vfs"},
		Faults:     []FaultName{FaultSessionCrash},
	}
}

// TestSessionSpaceEnumeration: sessioncrash cells pair only with redis,
// enumerate per-function over session-attributable exports, and never
// use the wildcard site.
func TestSessionSpaceEnumeration(t *testing.T) {
	cells, err := EnumerateSpace(SpaceOptions{
		Workloads: []string{"sqlite", "redis"},
		Configs:   []string{"das"},
		Faults:    []FaultName{FaultSessionCrash},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) == 0 {
		t.Fatal("no sessioncrash cells enumerated")
	}
	comps := map[string]bool{}
	for _, c := range cells {
		if c.Workload != "redis" {
			t.Errorf("cell %s: sessioncrash paired with %s", c.ID(), c.Workload)
		}
		if c.Function == core.AnyFunction {
			t.Errorf("cell %s: sessioncrash must be per-function", c.ID())
		}
		comps[c.Component] = true
	}
	for _, want := range []string{"vfs", "lwip", "9pfs"} {
		if !comps[want] {
			t.Errorf("no sessioncrash cells for session-bearing component %q (got %v)", want, comps)
		}
	}
	if comps["virtio"] || comps["process"] {
		t.Errorf("sessioncrash cells on non-session components: %v", comps)
	}
}

// TestSessionCampaignSlice: crashes on the hot per-session vfs sites
// must recover at the session rung with untouched sessions observing
// zero errors, and the matrix must be byte-identical across -parallel.
func TestSessionCampaignSlice(t *testing.T) {
	trials := []string{
		"redis/das/vfs/read/sessioncrash",
		"redis/das/vfs/write/sessioncrash",
	}
	run := func(parallel int) *Matrix {
		m, err := Run(Options{Space: sessionSpace(), Seed: 11, Parallel: parallel, Trials: trials})
		if err != nil {
			t.Fatalf("campaign run: %v", err)
		}
		return m
	}
	serial := run(1)
	parallel := run(2)
	sj, pj := matrixJSON(t, serial), matrixJSON(t, parallel)
	if !bytes.Equal(sj, pj) {
		t.Fatalf("session matrix differs across -parallel:\nserial:   %s\nparallel: %s", sj, pj)
	}
	golden.Check(t, goldenPath(t), sj)
	for _, c := range serial.Cells {
		if c.Verdict != VerdictPass {
			t.Errorf("%s: verdict %s (detail: %s, oracles: %+v)", c.TrialID, c.Verdict, c.Detail, c.Oracles)
		}
		if c.ClientErrs != 0 {
			t.Errorf("%s: %d client errors, want 0 on every session", c.TrialID, c.ClientErrs)
		}
	}
}
