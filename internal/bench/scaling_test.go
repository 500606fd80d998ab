package bench

import (
	"runtime"
	"testing"
	"time"
)

// scalingTestScale shrinks the figure so the shape test stays fast while
// keeping enough per-op CPU weight that round parallelism is measurable.
func scalingTestScale() Scale {
	s := DefaultScale()
	s.ScalingCells = 4
	s.ScalingOpsPerCell = 60
	s.ScalingValueBytes = 256
	s.ScalingCPUWork = 512
	s.ScalingProcs = []int{1, 2}
	return s
}

// TestScalingShape checks the structural claims of the scaling figure:
// every row acknowledges the full op count, the virtual fingerprints are
// identical across the shard and GOMAXPROCS grid (the determinism
// contract), and the shard engine actually formed multi-thread pen
// rounds. Wall-clock speedup is asserted only when the host has the
// cores to show it — the parallel-capacity model is asserted always.
func TestScalingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling figure is a sustained-load benchmark")
	}
	// The capacity model is built from real slice timings, so a loaded
	// host (CI neighbours, the race detector) can flatten one attempt.
	// Structural claims must hold on every attempt; the capacity headline
	// gets best-of-three before the test concludes the engine is broken.
	res, err := RunScaling(scalingTestScale())
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 0; res.Speedup < 1.2 && attempt < 2; attempt++ {
		again, err := RunScaling(scalingTestScale())
		if err != nil {
			t.Fatal(err)
		}
		if again.Speedup > res.Speedup {
			res = again
		}
	}
	// Only the virtual fingerprint is pinned: the wall columns are the
	// point of the figure and differ on every run.
	type fingerprint struct {
		Shards, Ops, Keys int
		VirtualElapsed    time.Duration
	}
	var fps []fingerprint
	for _, row := range append([]ScalingRow{res.Baseline}, res.Rows...) {
		fps = append(fps, fingerprint{row.Shards, row.Ops, row.Keys, row.VirtualElapsed})
	}
	checkGolden(t, "scaling", fps)
	want := 4 * 60
	if res.Baseline.Ops != want {
		t.Fatalf("baseline acknowledged %d ops, want %d", res.Baseline.Ops, want)
	}
	for _, row := range res.Rows {
		if row.Ops != want {
			t.Fatalf("row procs=%d acknowledged %d ops, want %d", row.Procs, row.Ops, want)
		}
		if row.Throughput <= 0 {
			t.Fatalf("row procs=%d has no throughput", row.Procs)
		}
	}
	if !res.FingerprintOK {
		t.Fatalf("virtual fingerprints diverged: baseline %v/%d keys, rows %+v",
			res.Baseline.VirtualElapsed, res.Baseline.Keys, res.Rows)
	}
	if res.Baseline.VirtualElapsed <= 0 || res.Baseline.Keys <= 0 {
		t.Fatalf("degenerate fingerprint: elapsed %v keys %d", res.Baseline.VirtualElapsed, res.Baseline.Keys)
	}
	if res.Rows[0].PenWidth < 2 {
		t.Fatalf("pen rounds stayed narrow (width %.2f): app threads are not co-scheduled", res.Rows[0].PenWidth)
	}
	for _, row := range append([]ScalingRow{res.Baseline}, res.Rows...) {
		// Each round is timed around its buckets, which are timed around
		// their slices: rounds cannot take less than their critical path.
		if row.RoundWall < row.CriticalPath {
			t.Fatalf("row procs=%d shards=%d: rounds took %v, below their critical path %v",
				row.Procs, row.Shards, row.RoundWall, row.CriticalPath)
		}
	}
	if res.Rows[0].CriticalPath <= 0 || res.Rows[0].CriticalPath >= res.Rows[0].SliceWall {
		t.Fatalf("critical path %v not below serial slice sum %v: rounds have no parallel width",
			res.Rows[0].CriticalPath, res.Rows[0].SliceWall)
	}
	// The capacity model must clear the figure's headline at full scale;
	// at this shrunken scale require it to at least clearly exceed 1.
	if res.Speedup < 1.2 {
		t.Fatalf("parallel capacity %.2fx: shard engine is not exposing concurrency", res.Speedup)
	}
	if runtime.NumCPU() >= 4 {
		last := res.Rows[len(res.Rows)-1]
		if res.WallSpeedup < 1.1 {
			t.Errorf("wall speedup %.2fx on a %d-CPU host (last row %v): real cores are not being used",
				res.WallSpeedup, runtime.NumCPU(), last.Wall)
		}
	}
	if res.Baseline.VirtualElapsed > 12*time.Hour {
		t.Fatalf("virtual elapsed %v exceeded the configured horizon", res.Baseline.VirtualElapsed)
	}
}

// TestRoundEfficiencyOfTwoCells reads sched.Stats.RoundWall around a run
// shaped like the kv_sharded benchmark workload — two redis cells on two
// shards, CPUWork 256 — and logs what share of the rounds' wall time was
// their critical path. The share is a wall-clock reading of this host, so
// only its bounds are asserted; EXPERIMENTS.md records the measured values.
func TestRoundEfficiencyOfTwoCells(t *testing.T) {
	if testing.Short() {
		t.Skip("sustained-load measurement")
	}
	scale := scalingTestScale()
	scale.ScalingCells, scale.ScalingOpsPerCell, scale.ScalingCPUWork = 2, 4000, 256
	row, err := runScalingRow(scale, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	eff := row.RoundEfficiency()
	t.Logf("GOMAXPROCS=2 shards=2 on %d CPUs: %.0f ops/s, rounds %v wall for a %v critical path and %v of slices: round efficiency %.2f",
		runtime.NumCPU(), row.Throughput, row.RoundWall, row.CriticalPath, row.SliceWall, eff)
	if eff <= 0 || eff > 1 {
		t.Fatalf("round efficiency %.3f outside (0, 1]: RoundWall %v, critical path %v", eff, row.RoundWall, row.CriticalPath)
	}
}
