package campaign

import (
	"bytes"
	"testing"

	"vampos/internal/golden"
)

// TestDefenseSpaceEnumeration: attack cells have restricted pairings —
// tamper only strikes checkpoint-eligible components, badframe only the
// 9P frame's consumer, the cross-domain touch any component with an
// arena — and all enumerate at wildcard granularity.
func TestDefenseSpaceEnumeration(t *testing.T) {
	cells, err := EnumerateSpace(SpaceOptions{
		Workloads: []string{"sqlite", "redis"},
		Configs:   []string{"das"},
		Faults:    DefenseFaults(),
	})
	if err != nil {
		t.Fatalf("enumerate: %v", err)
	}
	if len(cells) == 0 {
		t.Fatal("empty defense space")
	}
	tamperComps := map[string]bool{}
	for _, c := range cells {
		if c.Function != "*" {
			t.Errorf("%s: attack cells are wildcard-only, got function %q", c.ID(), c.Function)
		}
		if c.Expected {
			t.Errorf("%s: attack cells are never expected-unrecoverable", c.ID())
		}
		switch c.Fault {
		case FaultTamper:
			tamperComps[c.Component] = true
		case FaultBadFrame:
			if c.Component != "9pfs" {
				t.Errorf("%s: badframe pairs only with 9pfs", c.ID())
			}
		}
	}
	for comp := range tamperComps {
		if comp != "vfs" && comp != "lwip" {
			t.Errorf("tamper paired with %q, which retains no checkpoint images", comp)
		}
	}
	if !tamperComps["vfs"] {
		t.Error("tamper never paired with vfs")
	}
}

// defenseSpace is the deterministic defense slice: the sqlite workload
// (in-process syscalls, so recovery must be fully transparent — the
// service budget is zero) under the dependency-aware config, all three
// attack kinds over the file-system path's components. The network path
// (tamper/xdomtouch on lwip) rides in CI's defense-smoke job: those
// trials simulate a client workload and are too slow for a unit test.
func defenseSpace() SpaceOptions {
	return SpaceOptions{
		Workloads:  []string{"sqlite"},
		Configs:    []string{"das"},
		Components: []string{"vfs", "9pfs"},
		Faults:     DefenseFaults(),
	}
}

// TestDefenseCampaignSlice: every attack cell must pass the defense
// oracles — the attack is detected and answered, tamper recovery rolls
// back to an image strictly predating the taint watermark, consecutive
// incarnations of the attacked component expose distinct arena-layout
// fingerprints, and the matrix is byte-identical whatever the
// worker-pool size.
func TestDefenseCampaignSlice(t *testing.T) {
	run := func(parallel int) *Matrix {
		m, err := Run(Options{Space: defenseSpace(), Seed: 23, Parallel: parallel})
		if err != nil {
			t.Fatalf("campaign run: %v", err)
		}
		return m
	}
	serial := run(1)
	parallel := run(2)
	sj, pj := matrixJSON(t, serial), matrixJSON(t, parallel)
	if !bytes.Equal(sj, pj) {
		t.Fatalf("defense matrix differs between -parallel 1 and 2:\nserial:   %s\nparallel: %s", sj, pj)
	}
	golden.Check(t, goldenPath(t), sj)

	seenFault := map[FaultName]bool{}
	for _, c := range serial.Cells {
		seenFault[c.Fault] = true
		if c.Verdict != VerdictPass {
			t.Errorf("%s: verdict %s (detail: %s)", c.TrialID, c.Verdict, c.Detail)
		}
		wantOracles := map[string]bool{
			"attack-triggered": false, "containment": false,
			"re-randomize": false, "invariants": false,
		}
		if c.Fault == FaultTamper {
			wantOracles["taint-rollback"] = false
		}
		if c.Fault == FaultXDomTouch {
			wantOracles["confinement"] = false
		}
		for _, o := range c.Oracles {
			if _, ok := wantOracles[o.Name]; ok {
				wantOracles[o.Name] = true
			}
			if !o.OK {
				t.Errorf("%s: oracle %s failed: %s", c.TrialID, o.Name, o.Detail)
			}
		}
		for name, seen := range wantOracles {
			if !seen {
				t.Errorf("%s: oracle %s never ran", c.TrialID, name)
			}
		}
	}
	for _, f := range DefenseFaults() {
		if !seenFault[f] {
			t.Errorf("slice never exercised fault %s", f)
		}
	}
	if un := serial.Unexpected(); len(un) != 0 {
		t.Fatalf("unexpected failures: %v", un)
	}
}
