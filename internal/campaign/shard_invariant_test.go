package campaign

import (
	"bytes"
	"testing"

	"vampos/internal/golden"
)

// TestMatrixShardInvariant: the sharded batons must not move a single
// byte of the campaign matrix. The sqlite+redis matrix (every component
// each workload exercises, both fail-stop faults) is run at shard counts
// 1, 2 and 4, crossed with different worker-pool sizes; every run must
// serialize to the identical JSON, and every cell must pass its oracle.
// This is the campaign-level face of the determinism contract: batch
// composition and merge order are pure functions of the seed, so neither
// the shard count nor host parallelism can leak into results.
func TestMatrixShardInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full two-workload matrix at three shard counts")
	}
	space := SpaceOptions{
		Workloads: []string{"sqlite", "redis"},
		Configs:   []string{"das"},
		Faults:    []FaultName{FaultCrash, FaultHang},
	}
	run := func(parallel, shards int) []byte {
		t.Helper()
		m, err := Run(Options{Space: space, Seed: 1234, Parallel: parallel, Shards: shards})
		if err != nil {
			t.Fatalf("campaign run (parallel=%d shards=%d): %v", parallel, shards, err)
		}
		for _, c := range m.Cells {
			// VIRTIO cells are expected-unrecoverable by design (the
			// device shares state with the host); everything else must
			// recover and pass its oracles.
			if c.Verdict != VerdictPass && c.Verdict != VerdictExpected {
				t.Errorf("parallel=%d shards=%d %s: verdict %s (detail: %s)",
					parallel, shards, c.TrialID, c.Verdict, c.Detail)
			}
		}
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes()
	}
	ref := run(1, 1)
	golden.Check(t, goldenPath(t), ref)
	for _, cfg := range []struct{ parallel, shards int }{
		{4, 1}, {1, 2}, {4, 2}, {2, 4},
	} {
		got := run(cfg.parallel, cfg.shards)
		if !bytes.Equal(ref, got) {
			t.Fatalf("matrix differs from parallel=1 shards=1 at parallel=%d shards=%d:\nref: %s\ngot: %s",
				cfg.parallel, cfg.shards, ref, got)
		}
	}
}
