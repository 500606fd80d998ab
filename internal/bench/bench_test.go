package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"vampos/internal/golden"
)

// goldenPath is the recorded result of one experiment at the scale its
// shape test runs.
func goldenPath(exp string) string { return filepath.Join("testdata", "golden", exp+".json") }

// checkGolden compares an experiment's result, as indented JSON, byte
// for byte with its golden. The result types hold no wall-clock field
// (the scaling figure's test passes only its virtual fingerprint), so
// the file is a pure function of the scale: a moved byte is a moved
// virtual number.
func checkGolden(t *testing.T, exp string, res any) {
	t.Helper()
	got, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, goldenPath(exp), append(got, '\n'))
}

// TestEveryExperimentHasAGolden: every experiment the suite can run is
// pinned by a recorded result, so none can change behaviour unnoticed.
func TestEveryExperimentHasAGolden(t *testing.T) {
	for _, exp := range ExperimentNames() {
		if _, err := os.Stat(goldenPath(exp)); err != nil {
			t.Errorf("experiment %q has no golden: %v", exp, err)
		}
	}
}

// TestBenchBaselinesMatchDefaultScale: each checked-in BENCH_*.json
// baseline was run at DefaultScale, and its Scale block says so in full,
// so a reader can rerun any baseline from the block alone. The
// experiments that take well under a second at that scale — recovery,
// microreboot, defense and cluster — are rerun, and every section of
// their file must equal the fresh result, so a baseline cannot drift
// from the code unnoticed. Aging (about 8 s) and scaling (about 10 s,
// with wall-clock numbers no rerun reproduces) keep the Scale check
// only.
func TestBenchBaselinesMatchDefaultScale(t *testing.T) {
	rerun := map[string]bool{"recovery": true, "microreboot": true, "defense": true, "cluster": true}
	def, err := json.Marshal(DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	want := scaleKeys(t, "DefaultScale()", def)
	files, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no BENCH_*.json baselines found (err %v)", err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		doc := sections(t, f, raw)
		got := scaleKeys(t, f, doc["Scale"])
		var differ []string
		for k := range want {
			if !reflect.DeepEqual(got[k], want[k]) {
				differ = append(differ, k)
			}
		}
		for k := range got {
			if _, ok := want[k]; !ok {
				differ = append(differ, k)
			}
		}
		if len(differ) > 0 {
			slices.Sort(differ)
			t.Errorf("%s: Scale keys missing, extra or unequal to DefaultScale(): %v", f, differ)
		}
		exp := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(f), "BENCH_"), ".json")
		if !rerun[exp] {
			continue
		}
		suite := &Suite{Scale: DefaultScale()}
		if err := suite.Run(exp, io.Discard); err != nil {
			t.Fatal(err)
		}
		var fresh bytes.Buffer
		if err := suite.WriteJSON(&fresh); err != nil {
			t.Fatal(err)
		}
		for k, v := range sections(t, "a fresh "+exp+" run", fresh.Bytes()) {
			old, ok := doc[k]
			if !ok {
				old = []byte("null") // a section added after the file was recorded
			}
			if !bytes.Equal(old, v) {
				t.Errorf("%s: section %s differs from a fresh run at DefaultScale(); rerun vampos-bench -exp %s -json", f, k, exp)
			}
		}
	}
}

// sections decodes a suite's JSON into its top-level sections, each
// compacted so that two encodings compare byte for byte.
func sections(t *testing.T, where string, raw []byte) map[string][]byte {
	t.Helper()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	out := make(map[string][]byte, len(doc))
	for k, v := range doc {
		var c bytes.Buffer
		if err := json.Compact(&c, v); err != nil {
			t.Fatalf("%s: %s: %v", where, k, err)
		}
		out[k] = c.Bytes()
	}
	return out
}

// scaleKeys decodes a Scale object into its keys' values.
func scaleKeys(t *testing.T, where string, raw []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("%s: Scale: %v", where, err)
	}
	return m
}

// tinyScale keeps each experiment under a couple of seconds while still
// exhibiting every shape the assertions check.
func tinyScale() Scale {
	s := DefaultScale()
	s.SyscallTrials = 12
	s.RebootTrials = 3
	s.RebootWarmGETs = 40
	s.SQLiteInserts = 150
	s.NginxRequests = 160
	s.NginxConns = 4
	s.RedisSets = 150
	s.EchoMessages = 150
	s.SiegeClients = 4
	s.SiegeRequests = 12
	s.RejuvInterval = time.Second
	s.Fig8WarmKeys = 500
	s.Fig8Duration = 12 * time.Second
	s.Fig8GETRate = 60
	s.Fig8InjectAt = 4 * time.Second
	s.AgingDuration = 1200 * time.Millisecond
	s.AgingClients = 2
	s.ClusterWrites = 48
	s.ClusterKillAt = 20
	s.ClusterReviveAt = 32
	return s
}

func TestFig5ShapeInvariants(t *testing.T) {
	res, err := RunFig5(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig5", res)
	for _, sc := range Fig5Syscalls {
		van := res.Virtual[sc][Vanilla].Mean
		noop := res.Virtual[sc][Noop].Mean
		das := res.Virtual[sc][DaS].Mean
		if van <= 0 || noop <= 0 || das <= 0 {
			t.Fatalf("%s: missing data (van=%v noop=%v das=%v)", sc, van, noop, das)
		}
		// Message passing costs more than direct calls.
		if das <= van {
			t.Errorf("%s: das (%v) not slower than vanilla (%v)", sc, das, van)
		}
		// Dependency-aware scheduling beats round-robin polling.
		if das >= noop {
			t.Errorf("%s: das (%v) not faster than noop (%v)", sc, das, noop)
		}
	}
	// Component merging helps the merged path (paper: FSm speeds up
	// open/close, NETm speeds up socket I/O).
	if fsm, das := res.Virtual["open"][FSm].Mean, res.Virtual["open"][DaS].Mean; fsm >= das {
		t.Errorf("open: fsm (%v) not faster than das (%v)", fsm, das)
	}
	if netm, das := res.Virtual["socket_write"][NETm].Mean, res.Virtual["socket_write"][DaS].Mean; netm >= das {
		t.Errorf("socket_write: netm (%v) not faster than das (%v)", netm, das)
	}
	// getpid has the fewest transitions of all calls under DaS.
	if res.Dispatches["getpid"][DaS] >= res.Dispatches["open"][DaS] {
		t.Errorf("getpid dispatches (%v) >= open dispatches (%v)",
			res.Dispatches["getpid"][DaS], res.Dispatches["open"][DaS])
	}
	if out := res.Render(); !strings.Contains(out, "getpid") {
		t.Error("render missing rows")
	}
}

func TestTable3ShapeInvariants(t *testing.T) {
	res, err := RunTable3(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table3", res)
	// getpid is never logged.
	if res.Normal["getpid"] != 0 || res.Shrunk["getpid"] != 0 {
		t.Errorf("getpid logged: normal=%v shrunk=%v", res.Normal["getpid"], res.Shrunk["getpid"])
	}
	// Shrinking strictly reduces open/close/socket families.
	for _, sc := range []string{"open", "close", "socket_read", "socket_write"} {
		if res.Shrunk[sc] >= res.Normal[sc] {
			t.Errorf("%s: shrunk (%v) not below normal (%v)", sc, res.Shrunk[sc], res.Normal[sc])
		}
	}
	// The paper's signature result: steady-state open() is net negative
	// with shrinking (fd reuse prunes the previous pair).
	if res.Shrunk["open"] >= 0 {
		t.Errorf("shrunk open = %v, want negative (fd-reuse pruning)", res.Shrunk["open"])
	}
	// Socket reads/writes fully pruned at close in steady state: ~0.
	if res.Shrunk["socket_read"] > res.Normal["socket_read"] {
		t.Errorf("socket_read shrunk %v > normal %v", res.Shrunk["socket_read"], res.Normal["socket_read"])
	}
	if out := res.Render(); !strings.Contains(out, "Table III") {
		t.Error("render missing title")
	}
}

func TestFig6ShapeInvariants(t *testing.T) {
	res, err := RunFig6(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig6", res)
	byLabel := map[string]Fig6Row{}
	for _, row := range res.Rows {
		byLabel[row.Target.Label] = row
	}
	proc := byLabel["PROCESS"]
	vfs := byLabel["VFS"]
	lwip := byLabel["LWIP"]
	ninep := byLabel["9PFS"]
	merged := byLabel["VFS+9PFS"]
	// Stateless reboots are far cheaper than stateful ones.
	if proc.Virtual.Mean*10 >= vfs.Virtual.Mean {
		t.Errorf("PROCESS reboot (%v) not ≪ VFS reboot (%v)", proc.Virtual.Mean, vfs.Virtual.Mean)
	}
	if proc.Pages != 0 || proc.Replayed != 0 {
		t.Errorf("stateless reboot restored pages=%d replayed=%d", proc.Pages, proc.Replayed)
	}
	// Snapshot restore dominates checkpointed components: VFS and LWIP
	// restore pages, 9PFS does not (cold re-init + replay).
	if vfs.Pages == 0 || lwip.Pages == 0 {
		t.Errorf("checkpointed reboots restored no pages: vfs=%d lwip=%d", vfs.Pages, lwip.Pages)
	}
	if ninep.Pages != 0 {
		t.Errorf("9PFS restored %d pages, want 0 (cold re-init)", ninep.Pages)
	}
	// 9PFS is the fastest stateful reboot (paper: no data/bss snapshot).
	if ninep.Virtual.Mean >= vfs.Virtual.Mean {
		t.Errorf("9PFS reboot (%v) not faster than VFS (%v)", ninep.Virtual.Mean, vfs.Virtual.Mean)
	}
	// The merged composite reboots both members: at least as many pages.
	if merged.Pages < vfs.Pages {
		t.Errorf("merged reboot pages %d < vfs pages %d", merged.Pages, vfs.Pages)
	}
	// Everything stays within the paper's tens-of-milliseconds order.
	for label, row := range byLabel {
		if row.Virtual.Max > 200*time.Millisecond {
			t.Errorf("%s reboot %v exceeds 200ms", label, row.Virtual.Max)
		}
	}
}

func TestRecoveryShapeInvariants(t *testing.T) {
	scale := tinyScale()
	scale.RecoveryCalls = []int{16, 64, 256}
	scale.RecoveryCkptEvery = 16
	res, err := RunRecovery(scale)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "recovery", res)
	if len(res.Off) != len(scale.RecoveryCalls) || len(res.On) != len(scale.RecoveryCalls) {
		t.Fatalf("points: off=%d on=%d, want %d each", len(res.Off), len(res.On), len(scale.RecoveryCalls))
	}
	for i, calls := range scale.RecoveryCalls {
		off, on := res.Off[i], res.On[i]
		// Without checkpointing every completed call is retained (the fd
		// stays open, compaction is parked) and replayed on recovery.
		if off.Replayed < calls {
			t.Errorf("off/%d: replayed %d entries, want >= %d (linear growth)", calls, off.Replayed, calls)
		}
		if off.Checkpoints != 0 || off.Truncated != 0 {
			t.Errorf("off/%d: checkpoints=%d truncated=%d, want 0", calls, off.Checkpoints, off.Truncated)
		}
		// With checkpointing replay is bounded by the cadence regardless
		// of calls-since-boot.
		if on.Replayed > scale.RecoveryCkptEvery {
			t.Errorf("on/%d: replayed %d entries, want <= cadence %d", calls, on.Replayed, scale.RecoveryCkptEvery)
		}
		if want := uint64(calls / scale.RecoveryCkptEvery); on.Checkpoints < want {
			t.Errorf("on/%d: %d checkpoints, want >= %d", calls, on.Checkpoints, want)
		}
		if on.Truncated == 0 {
			t.Errorf("on/%d: checkpoints truncated nothing", calls)
		}
		// Both arms restore the same checkpoint image order of magnitude;
		// the delta snapshots must not balloon the restored page count.
		if off.RestoredPages == 0 || on.RestoredPages == 0 {
			t.Errorf("calls=%d: restored pages off=%d on=%d, want > 0", calls, off.RestoredPages, on.RestoredPages)
		}
		if on.RestoredPages > 2*off.RestoredPages {
			t.Errorf("calls=%d: ckpt-on restored %d pages, off only %d", calls, on.RestoredPages, off.RestoredPages)
		}
	}
	first, last := len(res.Off)-len(res.Off), len(res.Off)-1
	// Off: recovery latency grows with calls-since-boot. On: flat.
	if res.Off[last].Virtual <= res.Off[first].Virtual {
		t.Errorf("off arm not growing: %v (at %d calls) <= %v (at %d calls)",
			res.Off[last].Virtual, res.Off[last].Calls, res.Off[first].Virtual, res.Off[first].Calls)
	}
	if grow := res.On[last].Virtual - res.On[first].Virtual; grow > res.On[first].Virtual/10 {
		t.Errorf("on arm not flat: grew %v from %v over %dx more calls",
			grow, res.On[first].Virtual, res.On[last].Calls/res.On[first].Calls)
	}
	if res.Off[last].Virtual <= res.On[last].Virtual {
		t.Errorf("at %d calls ckpt-off recovery (%v) not slower than ckpt-on (%v)",
			res.Off[last].Calls, res.Off[last].Virtual, res.On[last].Virtual)
	}
	if out := res.Render(); !strings.Contains(out, "Checkpoint figure") {
		t.Error("render missing title")
	}
}

func TestFig7ShapeInvariants(t *testing.T) {
	res, err := RunFig7(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig7", res)
	for _, app := range Fig7Apps {
		van, ok := res.Row(app, Vanilla)
		if !ok || van.Virtual <= 0 {
			t.Fatalf("%s vanilla missing", app)
		}
		das, _ := res.Row(app, DaS)
		noop, _ := res.Row(app, Noop)
		ratioDas := float64(das.Virtual) / float64(van.Virtual)
		ratioNoop := float64(noop.Virtual) / float64(van.Virtual)
		// VampOS costs something but stays within the paper's band
		// (≤ ~1.5× for DaS; Noop is the worst configuration).
		if ratioDas < 0.9 {
			t.Errorf("%s: das ratio %.2f implausibly below vanilla", app, ratioDas)
		}
		if ratioDas > 3.0 {
			t.Errorf("%s: das ratio %.2f far above the paper's band", app, ratioDas)
		}
		if ratioNoop < ratioDas {
			t.Errorf("%s: noop (%.2fx) cheaper than das (%.2fx)", app, ratioNoop, ratioDas)
		}
	}
	// Redis is I/O-dominated: the AOF share must be substantial, which
	// is what hides VampOS's overhead in the paper.
	if van, _ := res.Row("redis", Vanilla); van.IOShare < 0.3 {
		t.Errorf("redis I/O share %.2f, want >= 0.3 (AOF-dominated)", van.IOShare)
	}
	// Redis memory dwarfs the message-domain overhead (paper Fig. 7b).
	if das, _ := res.Row("redis", DaS); das.DomainBytes <= 0 {
		t.Error("redis das domain bytes = 0")
	}
	if out := res.Render(); !strings.Contains(out, "Fig. 7a") {
		t.Error("render missing title")
	}
}

func TestTable4ShapeInvariants(t *testing.T) {
	res, err := RunTable4(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table4", res)
	for _, app := range Table4Apps {
		for _, th := range res.Thresholds {
			if res.Throughput[app][th] <= 0 {
				t.Errorf("%s threshold %d: zero throughput", app, th)
			}
		}
		// The paper: frequent shrinking (threshold 20) is never the
		// fastest by a large margin; allow equality within noise.
		if res.Throughput[app][20] > res.Throughput[app][1000]*1.25 {
			t.Errorf("%s: threshold 20 (%f) much faster than 1000 (%f)",
				app, res.Throughput[app][20], res.Throughput[app][1000])
		}
	}
}

func TestTable5ShapeInvariants(t *testing.T) {
	res, err := RunTable5(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table5", res)
	var u, vo Table5Row
	for _, row := range res.Rows {
		switch row.Variant {
		case VariantFullReboot:
			u = row
		case VariantVampOS:
			vo = row
		}
	}
	if vo.Fails != 0 {
		t.Errorf("vampos lost %d requests across rejuvenation, want 0 (paper: 100%%)", vo.Fails)
	}
	if u.Fails == 0 {
		t.Errorf("full reboot lost no requests; the paper loses ~25%%")
	}
	if vo.Reboots == 0 || u.Reboots == 0 {
		t.Errorf("rejuvenation never ran: vampos=%d unikraft=%d", vo.Reboots, u.Reboots)
	}
	if vo.SuccessRatio() != 1.0 {
		t.Errorf("vampos success ratio %.3f, want 1.0", vo.SuccessRatio())
	}
	if u.SuccessRatio() >= vo.SuccessRatio() {
		t.Errorf("full reboot ratio %.3f not below vampos %.3f", u.SuccessRatio(), vo.SuccessRatio())
	}
}

func TestFig8ShapeInvariants(t *testing.T) {
	res, err := RunFig8(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig8", res)
	var vo, fr Fig8Series
	for _, s := range res.Series {
		switch s.Variant {
		case VariantVampOS:
			vo = s
		case VariantFullReboot:
			fr = s
		}
	}
	if len(vo.Points) == 0 || len(fr.Points) == 0 {
		t.Fatalf("missing probe points: vampos=%d fullreboot=%d", len(vo.Points), len(fr.Points))
	}
	// VampOS recovery: almost zero disruption. Full reboot: a visible
	// multi-hundred-ms outage (boot delay + AOF reload).
	if vo.Outage > 100*time.Millisecond {
		t.Errorf("vampos disruption %v, want ~0", vo.Outage)
	}
	if fr.Outage < 200*time.Millisecond {
		t.Errorf("full-reboot disruption %v, want >= 200ms", fr.Outage)
	}
	if fr.Outage <= vo.Outage {
		t.Errorf("full reboot (%v) not worse than vampos (%v)", fr.Outage, vo.Outage)
	}
	if out := res.Render(); !strings.Contains(out, "Fig. 8") {
		t.Error("render missing title")
	}
}

func TestAgingShapeInvariants(t *testing.T) {
	res, err := RunAging(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "aging", res)
	rows := map[AgingArm]AgingRow{}
	for _, r := range res.Rows {
		rows[r.Arm] = r
	}
	none, periodic, adaptive := rows[AgingNone], rows[AgingPeriodic], rows[AgingAdaptive]
	for _, r := range []AgingRow{none, periodic, adaptive} {
		if r.Arm == "" {
			t.Fatalf("missing arm in %+v", res.Rows)
		}
		// Zero lost requests on every arm: component reboots pause the
		// mailbox, they never drop traffic (the Table V property).
		if r.Fails != 0 {
			t.Errorf("%s: %d failed round trips, want 0", r.Arm, r.Fails)
		}
		if r.Success == 0 {
			t.Errorf("%s: no successful round trips", r.Arm)
		}
		if r.LeakedBytes == 0 {
			t.Errorf("%s: injector dripped nothing", r.Arm)
		}
	}
	// No rejuvenation: the leak accumulates monotonically — nothing but
	// a reboot reclaims arena allocations (the paper's aging motivation).
	if none.Reboots != 0 {
		t.Errorf("none arm rebooted %d times", none.Reboots)
	}
	if none.HeapEnd < none.HeapStart+none.LeakedBytes {
		t.Errorf("none arm heap %d -> %d did not retain the %d B leak",
			none.HeapStart, none.HeapEnd, none.LeakedBytes)
	}
	// Monotone growth over the in-run samples (the final sample is taken
	// after the clients hang up, which frees their lwip socket state; a
	// small tolerance absorbs transient per-round-trip churn).
	const churn = 16 << 10
	for i := 1; i < len(none.Trajectory)-1; i++ {
		if none.Trajectory[i].Allocated < none.Trajectory[i-1].Allocated-churn {
			t.Errorf("none arm trajectory not monotone at %v", none.Trajectory[i].At)
		}
	}
	// Periodic: blind reboots on a wall schedule, aged or not.
	if periodic.Reboots == 0 {
		t.Error("periodic arm never rebooted")
	}
	if periodic.Rejuvenations != 0 {
		t.Errorf("periodic arm recorded %d sensor-triggered rejuvenations", periodic.Rejuvenations)
	}
	// Adaptive: sensor-triggered rejuvenation fires, attributed to the
	// leak-slope sensor, and sheds the leak with fewer reboots than the
	// blind schedule.
	if adaptive.Rejuvenations == 0 {
		t.Fatal("adaptive arm never rejuvenated")
	}
	if adaptive.Reboots != adaptive.Rejuvenations {
		t.Errorf("adaptive arm: %d reboots but %d rejuvenations — non-sensor reboots happened",
			adaptive.Reboots, adaptive.Rejuvenations)
	}
	if adaptive.Cause != "leak-slope" {
		t.Errorf("adaptive cause = %q, want leak-slope", adaptive.Cause)
	}
	if adaptive.Reboots >= periodic.Reboots {
		t.Errorf("adaptive reboots (%d) not fewer than periodic (%d)",
			adaptive.Reboots, periodic.Reboots)
	}
	// Bounded aging: the adaptive arm ends well below the none arm's
	// retained leak, and external fragmentation stays bounded.
	if adaptive.HeapEnd >= none.HeapEnd {
		t.Errorf("adaptive heap end %d not below none arm %d", adaptive.HeapEnd, none.HeapEnd)
	}
	if adaptive.HeapEnd > none.HeapStart+none.LeakedBytes/2 {
		t.Errorf("adaptive heap end %d retains more than half the leak (start %d, leaked %d)",
			adaptive.HeapEnd, none.HeapStart, none.LeakedBytes)
	}
	if adaptive.FragEnd > 0.6 {
		t.Errorf("adaptive fragmentation %.2f not bounded", adaptive.FragEnd)
	}
	if out := res.Render(); !strings.Contains(out, "adaptive") || !strings.Contains(out, "leak-slope") {
		t.Error("render missing adaptive row")
	}
}

func TestClusterShapeInvariants(t *testing.T) {
	res, err := RunCluster(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cluster", res)
	rows := map[ClusterArm]ClusterRow{}
	for _, r := range res.Rows {
		rows[r.Arm] = r
	}
	sync, async := rows[ClusterSync], rows[ClusterAsync]
	if sync.Arm == "" || async.Arm == "" {
		t.Fatalf("missing arm in %+v", res.Rows)
	}
	for _, r := range []ClusterRow{sync, async} {
		// Both arms keep serving through the outage and reconverge.
		if !r.Converged {
			t.Errorf("%s: replicas did not converge", r.Arm)
		}
		if r.OutageAcked == 0 {
			t.Errorf("%s: no writes acknowledged during the outage (no failover)", r.Arm)
		}
		if r.ReconvergeVirtual <= 0 || r.ReconvergeRounds < 1 {
			t.Errorf("%s: no reconvergence recorded (virtual=%v rounds=%d)",
				r.Arm, r.ReconvergeVirtual, r.ReconvergeRounds)
		}
		if r.Acked+r.Rejected != r.Writes {
			t.Errorf("%s: acked %d + rejected %d != writes %d", r.Arm, r.Acked, r.Rejected, r.Writes)
		}
	}
	// The figure's claim: synchronous quorum replication loses zero
	// acknowledged writes across the kill; acking at the owner alone
	// loses the un-gossiped tail.
	if sync.AckedLost != 0 {
		t.Errorf("sync-quorum lost %d acknowledged writes, want 0", sync.AckedLost)
	}
	if async.AckedLost <= sync.AckedLost {
		t.Errorf("async-gossip lost %d acknowledged writes, want more than sync's %d",
			async.AckedLost, sync.AckedLost)
	}
	if out := res.Render(); !strings.Contains(out, "sync-quorum") || !strings.Contains(out, "acked lost") {
		t.Error("render missing cluster rows")
	}
}

func TestMicrorebootShapeInvariants(t *testing.T) {
	scale := tinyScale()
	res, err := RunMicroreboot(scale)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "microreboot", res)
	if res.Sessions != scale.MicroSessions || res.WritesPerSession != scale.MicroWritesPer {
		t.Fatalf("workload shape %d x %d, want %d x %d",
			res.Sessions, res.WritesPerSession, scale.MicroSessions, scale.MicroWritesPer)
	}
	for _, a := range []MicrorebootArm{res.Session, res.Component, res.Restart} {
		if a.Rung == "" || a.Virtual <= 0 {
			t.Errorf("arm %+v: missing rung or non-positive latency", a)
		}
	}
	// The session rung replays one session's slice (its opener plus its
	// retained writes), the component rung every session's.
	if res.Session.Replayed > res.WritesPerSession+2 {
		t.Errorf("session rung replayed %d entries, want <= one session's slice (%d writes + opener)",
			res.Session.Replayed, res.WritesPerSession)
	}
	if min := res.Sessions * res.WritesPerSession; res.Component.Replayed < min {
		t.Errorf("component rung replayed %d entries, want >= %d (every session's writes)",
			res.Component.Replayed, min)
	}
	if res.Restart.Replayed != 0 {
		t.Errorf("full restart replayed %d entries, want 0 (nothing survives)", res.Restart.Replayed)
	}
	// The figure's claim: on a many-session workload rung 1 is at least
	// 5x cheaper than rung 2, which is cheaper than losing everything.
	if res.SpeedupVsComponent < 5 {
		t.Errorf("session microreboot speedup %.1fx over component reboot, want >= 5x",
			res.SpeedupVsComponent)
	}
	if res.Restart.Virtual <= res.Session.Virtual {
		t.Errorf("full restart (%v) not slower than a session microreboot (%v)",
			res.Restart.Virtual, res.Session.Virtual)
	}
	if out := res.Render(); !strings.Contains(out, "session-microreboot") || !strings.Contains(out, "full-restart") {
		t.Error("render missing ladder rungs")
	}
}

func TestDefenseShapeInvariants(t *testing.T) {
	res, err := RunDefense(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "defense", res)
	for _, a := range []DefenseArm{res.Plain, res.Taint} {
		if a.Arm == "" || a.RecoveryVirtual <= 0 {
			t.Errorf("arm %+v: missing name or non-positive recovery latency", a)
		}
		// Neither recovery policy may cost pre-attack application data:
		// the plain arm has it all in the newest image, the taint arm's
		// watermark provably postdates the warm payload.
		if !a.WarmDataIntact {
			t.Errorf("%s: pre-attack workload records did not read back intact", a.Arm)
		}
	}
	// The paper's recovery trusts its newest checkpoint: the tamper is
	// silent, nothing is quarantined, and the planted bytes outlive the
	// reboot.
	if res.Plain.Detected {
		t.Error("recovery-to-latest: tamper was detected with the pipeline off")
	}
	if !res.Plain.CorruptionSurvived {
		t.Error("recovery-to-latest: planted bytes did not survive the reboot (expected them in the newest image)")
	}
	if res.Plain.TaintWatermark != 0 || res.Plain.Quarantined != 0 {
		t.Errorf("recovery-to-latest: watermark=%d quarantined=%d, want 0/0 (no taint machinery)",
			res.Plain.TaintWatermark, res.Plain.Quarantined)
	}
	if res.Plain.FingerprintAfter != res.Plain.FingerprintBefore {
		t.Errorf("recovery-to-latest: layout fingerprint moved 0x%x -> 0x%x without re-randomization",
			res.Plain.FingerprintBefore, res.Plain.FingerprintAfter)
	}
	// The defense pipeline detects, rolls back strictly past the
	// watermark, quarantines the image(s) that captured the tampered
	// arena, and re-randomizes the layout.
	if !res.Taint.Detected {
		t.Error("taint-aware: tamper never detected")
	}
	if res.Taint.CorruptionSurvived {
		t.Error("taint-aware: corruption survived the recovery")
	}
	if res.Taint.TaintWatermark == 0 || res.Taint.RestoredEpochSeq >= res.Taint.TaintWatermark {
		t.Errorf("taint-aware: restored epoch seq %d vs watermark %d, want a strictly earlier image",
			res.Taint.RestoredEpochSeq, res.Taint.TaintWatermark)
	}
	if res.Taint.Quarantined < 1 {
		t.Errorf("taint-aware: quarantined %d images, want >= 1 (the seal window straddles a checkpoint)",
			res.Taint.Quarantined)
	}
	if res.Taint.FingerprintAfter == res.Taint.FingerprintBefore || res.Taint.FingerprintAfter == 0 {
		t.Errorf("taint-aware: layout fingerprint 0x%x -> 0x%x, want a fresh nonzero layout",
			res.Taint.FingerprintBefore, res.Taint.FingerprintAfter)
	}
	if out := res.Render(); !strings.Contains(out, "recovery-to-latest") || !strings.Contains(out, "taint-aware") {
		t.Error("render missing defense arms")
	}
}

// TestRunUnknownExperiment: a name outside the suite is an error that
// lists the names the suite does run.
func TestRunUnknownExperiment(t *testing.T) {
	var out strings.Builder
	err := (&Suite{Scale: tinyScale()}).Run("nosuch", &out)
	if err == nil {
		t.Fatal("Run(\"nosuch\") succeeded")
	}
	for _, name := range ExperimentNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}
