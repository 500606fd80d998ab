package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"vampos/internal/ckpt"
	"vampos/internal/golden"
)

// smallSpace is a two-cell slice (echo × das × lwip × {crash,hang})
// used by the determinism tests: big enough to exercise injection,
// detection and judging, small enough to run twice in a unit test.
func smallSpace() SpaceOptions {
	return SpaceOptions{
		Workloads:  []string{"echo"},
		Configs:    []string{"das"},
		Components: []string{"lwip"},
		Faults:     []FaultName{FaultCrash, FaultHang},
	}
}

// TestPoolSize: the worker count RunCells starts (and the campaign
// command reports) is the flag, or GOMAXPROCS for 0, capped at the cell
// count and never below one.
func TestPoolSize(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ parallel, cells, want int }{
		{3, 10, 3},
		{3, 2, 2},
		{0, 1000, procs},
		{-1, 1000, procs},
		{0, 1, 1},
		{4, 0, 1},
	} {
		if got := PoolSize(c.parallel, c.cells); got != c.want {
			t.Errorf("PoolSize(%d, %d) = %d, want %d", c.parallel, c.cells, got, c.want)
		}
	}
}

func runSmall(t *testing.T, parallel int, seed int64) *Matrix {
	t.Helper()
	m, err := Run(Options{Space: smallSpace(), Seed: seed, Parallel: parallel})
	if err != nil {
		t.Fatalf("campaign run: %v", err)
	}
	return m
}

func matrixJSON(t *testing.T, m *Matrix) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// TestMatrixParallelInvariant: the matrix must be byte-identical
// whatever the worker-pool size — trials are isolated instances on
// virtual clocks, so scheduling order cannot leak into results.
func TestMatrixParallelInvariant(t *testing.T) {
	serial := runSmall(t, 1, 42)
	parallel := runSmall(t, 4, 42)
	sj, pj := matrixJSON(t, serial), matrixJSON(t, parallel)
	if !bytes.Equal(sj, pj) {
		t.Fatalf("matrix differs between -parallel 1 and -parallel 4:\nserial:   %s\nparallel: %s", sj, pj)
	}
	golden.Check(t, goldenPath(t), sj)
	for _, c := range serial.Cells {
		if c.Verdict != VerdictPass {
			t.Errorf("%s: verdict %s (detail: %s)", c.TrialID, c.Verdict, c.Detail)
		}
	}
	if un := serial.Unexpected(); len(un) != 0 {
		t.Fatalf("unexpected failures: %v", un)
	}
}

// TestTrialReproducesFromSeed: re-running one cell through the -trial
// filter must reproduce the full matrix row, including virtual timings,
// and run it once however often the filter names it.
func TestTrialReproducesFromSeed(t *testing.T) {
	full := runSmall(t, 2, 7)
	want := full.Cells[0]
	again, err := Run(Options{Space: smallSpace(), Seed: 7, Parallel: 1, Trials: []string{want.TrialID, want.TrialID}})
	if err != nil {
		t.Fatalf("re-run trial %s: %v", want.TrialID, err)
	}
	if len(again.Cells) != 1 {
		t.Fatalf("trial filter returned %d cells, want 1", len(again.Cells))
	}
	got := again.Cells[0]
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if !bytes.Equal(gj, wj) {
		t.Fatalf("re-run of %s diverged:\nfirst: %s\nagain: %s", want.TrialID, wj, gj)
	}
}

// TestTrialFilterUnknownID: asking for a cell outside the enumerated
// space must fail with a pointer to -list, not run an empty campaign.
func TestTrialFilterUnknownID(t *testing.T) {
	_, err := Run(Options{Space: smallSpace(), Seed: 1, Trials: []string{"echo/das/nosuch/*/crash"}})
	if err == nil || !strings.Contains(err.Error(), "not in the enumerated space") {
		t.Fatalf("want not-in-space error, got %v", err)
	}
}

// TestCheckpointedCampaignSlice: stateful-component crash/hang cells
// must pass with incremental checkpointing (and the replay
// return-divergence check) enabled — post-checkpoint recovery preserves
// the application invariants the drivers verify against their host
// shadow, and the checkpoint oracle confirms recovery restored from the
// checkpoint image.
func TestCheckpointedCampaignSlice(t *testing.T) {
	space := SpaceOptions{
		Workloads:  []string{"sqlite", "echo"},
		Configs:    []string{"das"},
		Components: []string{"vfs", "lwip"},
		Faults:     []FaultName{FaultCrash, FaultHang},
	}
	m, err := Run(Options{
		Space:    space,
		Seed:     11,
		Parallel: 2,
		Ckpt:     ckpt.Policy{EveryCalls: 8},
	})
	if err != nil {
		t.Fatalf("campaign run: %v", err)
	}
	if len(m.Cells) == 0 {
		t.Fatal("empty checkpointed slice")
	}
	golden.Check(t, goldenPath(t), matrixJSON(t, m))
	sawCheckpointOracle := false
	for _, c := range m.Cells {
		if c.Verdict != VerdictPass {
			t.Errorf("%s: verdict %s (detail: %s)", c.TrialID, c.Verdict, c.Detail)
		}
		for _, o := range c.Oracles {
			if o.Name == "checkpoint" {
				sawCheckpointOracle = true
				if !o.OK {
					t.Errorf("%s: checkpoint oracle failed: %s", c.TrialID, o.Detail)
				}
			}
		}
	}
	if !sawCheckpointOracle {
		t.Error("checkpoint oracle never ran despite Ckpt policy enabled")
	}
	if un := m.Unexpected(); len(un) != 0 {
		t.Fatalf("unexpected failures: %v", un)
	}
}

// TestAgingCampaignSlice: aging cells must recover via sensor-triggered
// adaptive rejuvenation — the reboot reason is "rejuvenation" and the
// aging monitor names the sensor cause, not a wall timer — with the
// leak reclaimed and fragmentation bounded, byte-identically whatever
// the worker-pool size.
func TestAgingCampaignSlice(t *testing.T) {
	space := SpaceOptions{
		Workloads:  []string{"echo"},
		Configs:    []string{"das"},
		Components: []string{"lwip"},
		Faults:     []FaultName{FaultAging},
	}
	runAging := func(parallel int) *Matrix {
		t.Helper()
		m, err := Run(Options{Space: space, Seed: 21, Parallel: parallel})
		if err != nil {
			t.Fatalf("campaign run: %v", err)
		}
		return m
	}
	serial := runAging(1)
	parallel := runAging(4)
	sj, pj := matrixJSON(t, serial), matrixJSON(t, parallel)
	if !bytes.Equal(sj, pj) {
		t.Fatalf("aging matrix differs between -parallel 1 and 4:\nserial:   %s\nparallel: %s", sj, pj)
	}
	golden.Check(t, goldenPath(t), sj)
	if len(serial.Cells) == 0 {
		t.Fatal("empty aging slice")
	}
	for _, c := range serial.Cells {
		if c.Verdict != VerdictPass {
			t.Errorf("%s: verdict %s (detail: %s)", c.TrialID, c.Verdict, c.Detail)
		}
		if c.Reboots < 1 {
			t.Errorf("%s: no rejuvenation reboot recorded", c.TrialID)
		}
		sawRejuv := false
		for _, o := range c.Oracles {
			if o.Name == "rejuvenation" {
				sawRejuv = true
				if !o.OK {
					t.Errorf("%s: rejuvenation oracle failed: %s", c.TrialID, o.Detail)
				}
			}
		}
		if !sawRejuv {
			t.Errorf("%s: rejuvenation oracle never ran", c.TrialID)
		}
	}
	if un := serial.Unexpected(); len(un) != 0 {
		t.Fatalf("unexpected failures: %v", un)
	}
}

// TestAgingVirtioExpected: an aging fault on the documented-unrebootable
// VIRTIO component classifies as expected-unrecoverable — the adaptive
// controller keeps being refused (backoff), and nothing reboots.
func TestAgingVirtioExpected(t *testing.T) {
	space := SpaceOptions{
		Workloads:  []string{"echo"},
		Configs:    []string{"das"},
		Components: []string{"virtio"},
		Faults:     []FaultName{FaultAging},
	}
	cells, err := EnumerateSpace(space)
	if err != nil {
		t.Fatalf("enumerate: %v", err)
	}
	if len(cells) != 1 || !cells[0].Expected {
		t.Fatalf("virtio aging cell not marked expected: %+v", cells)
	}
	m, err := RunCells(cells, Options{Seed: 13, Parallel: 1})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	golden.Check(t, goldenPath(t), matrixJSON(t, m))
	res := m.Cells[0]
	if res.Verdict != VerdictExpected {
		t.Fatalf("verdict = %s, want %s (detail: %s)", res.Verdict, VerdictExpected, res.Detail)
	}
	if res.Reboots != 0 {
		t.Fatalf("unrebootable target rebooted %d times", res.Reboots)
	}
	if un := m.Unexpected(); len(un) != 0 {
		t.Fatalf("expected-unrecoverable aging cell counted as regression: %v", un)
	}
}

// TestVirtioExpectedUnrecoverable: reboot-inducing faults on the
// documented-unrebootable VIRTIO component classify as
// expected-unrecoverable and never count as regressions.
func TestVirtioExpectedUnrecoverable(t *testing.T) {
	space := SpaceOptions{
		Workloads:  []string{"echo"},
		Configs:    []string{"das"},
		Components: []string{"virtio"},
		Faults:     []FaultName{FaultCrash},
	}
	cells, err := EnumerateSpace(space)
	if err != nil {
		t.Fatalf("enumerate: %v", err)
	}
	if len(cells) != 1 || !cells[0].Expected {
		t.Fatalf("virtio crash cell not marked expected: %+v", cells)
	}
	m, err := RunCells(cells, Options{Seed: 3, Parallel: 1})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	golden.Check(t, goldenPath(t), matrixJSON(t, m))
	if v := m.Cells[0].Verdict; v != VerdictExpected {
		t.Fatalf("virtio crash verdict = %s, want %s (detail: %s)", v, VerdictExpected, m.Cells[0].Detail)
	}
	if un := m.Unexpected(); len(un) != 0 {
		t.Fatalf("expected-unrecoverable cell counted as regression: %v", un)
	}
}

// TestNotTriggeredPerFunction: arming a real but never-invoked fault
// site yields not-triggered, which is informative (not a regression)
// for per-function cells.
func TestNotTriggeredPerFunction(t *testing.T) {
	cell := Cell{
		Workload: "sqlite", Config: "das",
		Component: "9pfs", Function: "uk_9pfs_mkdir", Fault: FaultCrash,
	}
	m, err := RunCells([]Cell{cell}, Options{Seed: 5, Parallel: 1})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	golden.Check(t, goldenPath(t), matrixJSON(t, m))
	if v := m.Cells[0].Verdict; v != VerdictNotTriggered {
		t.Fatalf("verdict = %s, want %s (detail: %s)", v, VerdictNotTriggered, m.Cells[0].Detail)
	}
	if un := m.Unexpected(); len(un) != 0 {
		t.Fatalf("per-function not-triggered counted as regression: %v", un)
	}
}

// TestTraceDumpOnFailure: a failing trial must leave a loadable Chrome
// trace in -trace-dir. The cell targets a component absent from the
// echo profile, so injection fails deterministically.
func TestTraceDumpOnFailure(t *testing.T) {
	dir := t.TempDir()
	cell := Cell{
		Workload: "echo", Config: "das",
		Component: "9pfs", Function: "*", Fault: FaultCrash,
	}
	m, err := RunCells([]Cell{cell}, Options{Seed: 9, Parallel: 1, TraceDir: dir})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	res := m.Cells[0]
	if res.Verdict != VerdictFail {
		t.Fatalf("verdict = %s, want fail (detail: %s)", res.Verdict, res.Detail)
	}
	if res.TraceFile == "" {
		t.Fatal("failing trial left no trace file")
	}
	want := filepath.Join(dir, "echo_das_9pfs_*_crash.trace.json")
	if res.TraceFile != want {
		t.Errorf("trace file %q, want %q", res.TraceFile, want)
	}
	raw, err := os.ReadFile(res.TraceFile)
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		// Chrome's other accepted shape is a bare event array.
		var arr []map[string]any
		if err2 := json.Unmarshal(raw, &arr); err2 != nil {
			t.Fatalf("trace file is not loadable JSON: %v / %v", err, err2)
		}
		doc.TraceEvents = arr
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace file has no events")
	}
}

// TestTraceDirKeepsCellsWithoutRecorder: a trial that fails before its
// instance boots has no flight recorder to dump. With a trace directory
// set it must still report its failure, with no trace file, instead of
// turning the whole campaign into an error.
func TestTraceDirKeepsCellsWithoutRecorder(t *testing.T) {
	cells := []Cell{
		{Workload: "nosuch", Config: "das", Component: "vfs", Function: "*", Fault: FaultCrash},
		{Workload: "cluster", Config: "das", Component: "node9", Function: "*", Fault: FaultPartition},
	}
	m, err := RunCells(cells, Options{Seed: 1, Parallel: 1, TraceDir: t.TempDir()})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, c := range m.Cells {
		if c.Verdict != VerdictFail {
			t.Errorf("%s: verdict %s, want fail (detail: %s)", c.TrialID, c.Verdict, c.Detail)
		}
		if c.TraceFile != "" {
			t.Errorf("%s: trace file %q for a trial that never booted", c.TrialID, c.TraceFile)
		}
	}
}

// TestTrialSeedStability pins the per-trial seed derivation: changing
// it would silently re-randomise every published matrix.
func TestTrialSeedStability(t *testing.T) {
	a := trialSeed(1, "echo/das/lwip/*/crash")
	b := trialSeed(1, "echo/das/lwip/*/crash")
	if a != b {
		t.Fatalf("trialSeed not deterministic: %d vs %d", a, b)
	}
	if trialSeed(2, "echo/das/lwip/*/crash") == a {
		t.Error("campaign seed does not perturb the trial seed")
	}
	if trialSeed(1, "echo/das/lwip/*/hang") == a {
		t.Error("cell ID does not perturb the trial seed")
	}
}

// TestEnumerateDefaultSpace: the default campaign must cover every
// component of every workload profile under both default configs with
// both default faults — at least the 100 trials the paper-scale
// campaign promises — and a selection that pairs nothing is an error.
func TestEnumerateDefaultSpace(t *testing.T) {
	cells, err := EnumerateSpace(SpaceOptions{})
	if err != nil {
		t.Fatalf("enumerate: %v", err)
	}
	if len(cells) < 100 {
		t.Fatalf("default space has %d cells, want >= 100", len(cells))
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.ID()] {
			t.Fatalf("duplicate cell %s", c.ID())
		}
		seen[c.ID()] = true
		if c.Function != "*" {
			t.Errorf("default space emitted per-function cell %s", c.ID())
		}
	}

	// A fault that pairs with none of the selected workloads yields no
	// cell, and an empty campaign is an error.
	for _, o := range []SpaceOptions{
		{Faults: []FaultName{FaultInstanceKill}},
		{Workloads: []string{"sqlite"}, Faults: []FaultName{FaultSessionCrash}},
	} {
		if cells, err := EnumerateSpace(o); err == nil {
			t.Errorf("EnumerateSpace(%+v) = %d cells, want an error", o, len(cells))
		}
	}
}

// TestEnumerateRepeatedFilters: a value repeated in a filter counts once,
// so every enumerated cell keeps a trial ID of its own.
func TestEnumerateRepeatedFilters(t *testing.T) {
	cells, err := EnumerateSpace(SpaceOptions{
		Workloads:  []string{"echo", "echo", "redis"},
		Configs:    []string{"das", "das"},
		Components: []string{"lwip", "lwip", "vfs"},
		Faults:     []FaultName{FaultCrash, FaultCrash, FaultSessionCrash, FaultCrash},
	})
	if err != nil {
		t.Fatalf("enumerate: %v", err)
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.ID()] {
			t.Errorf("duplicate cell %s", c.ID())
		}
		seen[c.ID()] = true
	}
	for _, id := range []string{"echo/das/lwip/*/crash", "redis/das/vfs/*/crash", "redis/das/vfs/write/sessioncrash"} {
		if !seen[id] {
			t.Errorf("cell %s missing from %d cells", id, len(cells))
		}
	}
}

// TestEnumerateFullSpace pins every cell of the whole injection space —
// all five workloads × four configurations × twelve fault kinds — with
// its expected-unrecoverable flag, one line per cell. The lists are
// spelled out here so the oracle does not read the tables it checks.
func TestEnumerateFullSpace(t *testing.T) {
	cells, err := EnumerateSpace(SpaceOptions{
		Workloads: []string{"sqlite", "nginx", "redis", "echo", "cluster"},
		Configs:   []string{"noop", "das", "fsm", "netm"},
		Faults: []FaultName{"crash", "hang", "errno", "leak", "wildwrite", "aging",
			"instancekill", "partition", "sessioncrash", "tamper", "badframe", "xdomtouch"},
	})
	if err != nil {
		t.Fatalf("enumerate: %v", err)
	}
	var buf bytes.Buffer
	for _, c := range cells {
		fmt.Fprintf(&buf, "%s %v\n", c.ID(), c.Expected)
	}
	golden.Check(t, filepath.Join("testdata", "space", "full.txt"), buf.Bytes())
}
