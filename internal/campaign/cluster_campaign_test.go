package campaign

import (
	"bytes"
	"testing"

	"vampos/internal/golden"
)

func clusterSpace() SpaceOptions {
	return SpaceOptions{
		Workloads: []string{ClusterWorkload},
		Configs:   []string{"das"},
		Faults:    []FaultName{FaultInstanceKill, FaultPartition},
	}
}

func runClusterSlice(t *testing.T, parallel int, seed int64) *Matrix {
	t.Helper()
	m, err := Run(Options{Space: clusterSpace(), Seed: seed, Parallel: parallel})
	if err != nil {
		t.Fatalf("cluster campaign run: %v", err)
	}
	return m
}

// TestClusterCampaignSlice: every instance-kill and partition cell
// passes the convergence oracle, and the matrix is byte-identical
// across -parallel settings — multi-instance trials inherit the
// campaign's determinism because the cluster coordinator serialises
// all member execution.
func TestClusterCampaignSlice(t *testing.T) {
	serial := runClusterSlice(t, 1, 42)
	parallel := runClusterSlice(t, 4, 42)
	sj, pj := matrixJSON(t, serial), matrixJSON(t, parallel)
	if !bytes.Equal(sj, pj) {
		t.Fatalf("cluster matrix differs between -parallel 1 and 4:\nserial:   %s\nparallel: %s", sj, pj)
	}
	golden.Check(t, goldenPath(t), sj)
	// 3 victims × 2 fault kinds on one config.
	if len(serial.Cells) != 6 {
		t.Fatalf("cluster slice has %d cells, want 6", len(serial.Cells))
	}
	for _, c := range serial.Cells {
		if c.Verdict != VerdictPass {
			t.Errorf("%s: verdict %s (detail: %s)", c.TrialID, c.Verdict, c.Detail)
		}
		want := map[string]bool{"failover": false, "convergence": false, "durability": false, "service": false}
		switch c.Fault {
		case FaultInstanceKill:
			want["escalation"] = false
		case FaultPartition:
			want["partition-safety"] = false
		}
		for _, o := range c.Oracles {
			if _, req := want[o.Name]; req {
				want[o.Name] = true
			}
			if !o.OK {
				t.Errorf("%s: oracle %s failed: %s", c.TrialID, o.Name, o.Detail)
			}
		}
		for name, seen := range want {
			if !seen {
				t.Errorf("%s: oracle %q missing", c.TrialID, name)
			}
		}
		if c.Virtual <= 0 {
			t.Errorf("%s: no virtual time recorded", c.TrialID)
		}
		if c.Fault == FaultInstanceKill && c.Reboots < 1 {
			t.Errorf("%s: instance kill recorded no recovery", c.TrialID)
		}
	}
	if un := serial.Unexpected(); len(un) != 0 {
		t.Fatalf("unexpected failures: %v", un)
	}
}

// TestClusterSpaceEnumeration: the cluster workload enumerates victim ×
// fault cells, cluster faults never leak into single-instance
// workloads, and the default fault slice maps to both cluster kinds.
func TestClusterSpaceEnumeration(t *testing.T) {
	cells, err := EnumerateSpace(SpaceOptions{Workloads: []string{ClusterWorkload}, Configs: []string{"das"}})
	if err != nil {
		t.Fatalf("EnumerateSpace: %v", err)
	}
	if len(cells) != 6 {
		t.Fatalf("default cluster space has %d cells, want 6", len(cells))
	}
	for _, c := range cells {
		if !c.Fault.clusterFault() {
			t.Errorf("cluster cell %s has non-cluster fault", c.ID())
		}
		if c.Expected {
			t.Errorf("cluster cell %s marked expected-unrecoverable", c.ID())
		}
	}

	single, err := EnumerateSpace(SpaceOptions{
		Workloads: []string{"echo"}, Configs: []string{"das"},
		Faults: []FaultName{FaultCrash, FaultInstanceKill},
	})
	if err != nil {
		t.Fatalf("EnumerateSpace(echo): %v", err)
	}
	if len(single) == 0 {
		t.Fatal("echo space empty")
	}
	for _, c := range single {
		if c.Fault.clusterFault() {
			t.Errorf("single-instance cell %s got cluster fault", c.ID())
		}
	}

	filtered, err := EnumerateSpace(SpaceOptions{
		Workloads:  []string{ClusterWorkload},
		Configs:    []string{"das"},
		Components: []string{"node1"},
		Faults:     []FaultName{FaultPartition},
	})
	if err != nil {
		t.Fatalf("EnumerateSpace(node1): %v", err)
	}
	if len(filtered) != 1 || filtered[0].Component != "node1" || filtered[0].Fault != FaultPartition {
		t.Fatalf("filtered cluster space: %+v", filtered)
	}
}
