package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// manifest is BENCHMARK.json with exactly the keys the driver accepts.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesLedger keeps BENCHMARK.json and the ledger in step:
// same workloads, same metrics in the same list, same units, directions
// and bounds, all inside the driver's limits.
func TestManifestMatchesLedger(t *testing.T) {
	m := readManifest(t)
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := m.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or a why of %d characters", w.name, len(w.why))
		}
	}

	listed := make(map[string]string) // name -> list
	check := func(list string, mm manifestMetric) {
		if _, dup := listed[mm.Name]; dup {
			t.Errorf("%s is listed twice", mm.Name)
		}
		listed[mm.Name] = list
		d, ok := ledgerIndex[mm.Name]
		if !ok {
			t.Errorf("%s is in BENCHMARK.json but not in the ledger", mm.Name)
			return
		}
		if !nameRE.MatchString(mm.Name) || !unitRE.MatchString(mm.Unit) {
			t.Errorf("%s [%s]: name or unit outside the driver's alphabet", mm.Name, mm.Unit)
		}
		if d.Gate != list || d.Unit != mm.Unit || d.Better != mm.Better {
			t.Errorf("%s: BENCHMARK.json says %s/%s/%s, the ledger %s/%s/%s", mm.Name, list, mm.Unit, mm.Better, d.Gate, d.Unit, d.Better)
		}
		switch {
		case list == gateLayer && mm.Bound != nil:
			t.Errorf("%s: a per-layer metric has no bound", mm.Name)
		case list == gateE2E && (mm.Bound == nil || *mm.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
			t.Errorf("%s: bound %v in BENCHMARK.json, %v in the ledger", mm.Name, mm.Bound, d.Bound)
		}
	}
	for _, mm := range m.EndToEnd {
		check(gateE2E, mm)
	}
	for _, mm := range m.PerLayer {
		check(gateLayer, mm)
	}
	var e2e, layer int
	for _, d := range ledger {
		if _, ok := listed[d.Name]; !ok {
			t.Errorf("%s is in the ledger but not in BENCHMARK.json", d.Name)
		}
		if d.Layer == "e2e" {
			e2e++
		} else {
			layer++
		}
	}
	if e2e != 12 || layer != 100 {
		t.Errorf("the ledger holds %d end-to-end and %d per-layer metrics, want 12 and 100", e2e, layer)
	}
	if d := ledgerIndex["setup_s"]; d.Gate != gateE2E || d.Unit != "s" || d.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better: %+v", d)
	}
}

// smokeScale divides every workload's op count and the T batches' call
// count: the smoke test checks the instrument, not the program's speed.
const smokeScale = 200

type smokeRuns struct {
	e2e, layer *result
	again      values // the C rows of a second execution of the same seed
}

func smoke(t *testing.T, w *workload, seed int64) smokeRuns {
	t.Helper()
	var s smokeRuns
	var err error
	sc := w.scaleFor(w.ops/smokeScale, 0)
	if s.e2e, err = endToEnd(w, sc, seed); err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	m, err := w.execute(fitWindows(sc), seed, false, nil)
	if err != nil {
		t.Fatalf("%s again: %v", w.name, err)
	}
	s.again = measured(m)
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	if s.layer, err = perLayer(w, sc, seed, layerCalls/smokeScale, tracePath); err != nil {
		t.Fatalf("%s traced: %v", w.name, err)
	}
	if fi, err := os.Stat(tracePath); err != nil || fi.Size() == 0 {
		t.Errorf("%s: no Chrome trace written: %v", w.name, err)
	}
	return s
}

// TestSmoke runs the four workloads at 1/200 scale and checks what they
// emit against BENCHMARK.json and against the predictions the workloads
// were chosen for.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	names := func(list []manifestMetric) map[string]bool {
		set := make(map[string]bool)
		for _, mm := range list {
			set[mm.Name] = true
		}
		return set
	}
	lists := []map[string]bool{names(m.EndToEnd), names(m.PerLayer)}
	emitted := func(r *result) map[string]bool {
		set := make(map[string]bool)
		for name := range r.contractLine()["metrics"].(map[string]map[string]any) {
			set[name] = true
		}
		return set
	}

	// kv_heal first. The program never tears an instance down (Stop leaves
	// the parked threads and all they reference behind), and kv_heal's
	// checkpoints, 2 MiB of fresh snapshot each, run several times slower on
	// the heap the other three workloads leave than on a clean one.
	for i := len(workloads) - 1; i >= 0; i-- {
		w := workloads[i]
		t.Run(w.name, func(t *testing.T) {
			s := smoke(t, w, 1)
			for _, r := range []*result{s.e2e, s.layer} {
				got, want := emitted(r), lists[r.Trace]
				for name := range want {
					if !got[name] {
						t.Errorf("%s -trace %d: %s is in BENCHMARK.json but was not emitted", w.name, r.Trace, name)
					}
				}
				for name := range got {
					if !want[name] {
						t.Errorf("%s -trace %d: %s was emitted but is not in BENCHMARK.json", w.name, r.Trace, name)
					}
				}
				if r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("%s -trace %d: %d of %d ops failed", w.name, r.Trace, r.Failed, r.Attempted)
				}
			}
			for name := range lists[0] {
				if v := s.e2e.Metrics[name].Value; !(v > 0) {
					t.Errorf("%s: %s = %v, an end-to-end metric is never 0", w.name, name, v)
				}
			}

			// One seed, one virtual outcome: every number on the virtual clock
			// and every count repeats exactly.
			for _, d := range ledger {
				if d.Clock != clkVirtual || d.Source == srcR {
					continue
				}
				a, b := s.e2e.Metrics[d.Name].Value, s.again[d.Name].Value
				if a != b {
					t.Errorf("%s: exact metric %s differs between two runs of one seed: %v vs %v", w.name, d.Name, a, b)
				}
			}

			// Bypass predictions: each workload leaves the layers it was chosen
			// to avoid untouched.
			get := func(name string) float64 { return s.e2e.Metrics[name].Value }
			zero := func(name string, want bool) {
				if (get(name) == 0) != want {
					t.Errorf("%s: %s = %v, want zero: %v", w.name, name, get(name), want)
				}
			}
			zero("lwip.calls_per_op", w.name == "sqlite_insert")
			zero("netdev.calls_per_op", w.name == "sqlite_insert")
			zero("host.p9_handled_per_op", w.name == "echo_rtt" || w.name == "kv_sharded")
			zero("sched.rounds_per_op", w.name != "kv_sharded")
			zero("sched.pen_width", w.name != "kv_sharded")
			zero("core.recoveries_rung1", w.name != "kv_heal")
			zero("core.recoveries_rung2", w.name != "kv_heal")
			zero("recover_wall_us_mean", w.name != "kv_heal")
			zero("ckpt.checkpoints_per_kop", w.name != "kv_heal")
			zero("failed_ops_ratio", true)
			zero("mem.pkru_faults", true)
			zero("core.failed_restores", true)

			// The attribution is a partition of the traced wall, and the
			// recorder saw all of it.
			lv := func(name string) float64 { return s.layer.Metrics[name].Value }
			if sum := lv("attr.exec_share") + lv("attr.hop_share") + lv("attr.client_share"); math.Abs(sum-1) > 0.05 {
				t.Errorf("%s: attribution shares add up to %.3f of the traced wall", w.name, sum)
			}
			if lv("trace.dropped") != 0 || !(lv("trace.events_per_op") > 0) {
				t.Errorf("%s: trace dropped %v events, recorded %v per op", w.name, lv("trace.dropped"), lv("trace.events_per_op"))
			}
			if !(lv("attr.exec_share") > 0) || !(lv("trace.overhead_ratio") > 0) {
				t.Errorf("%s: exec share %v, tracing overhead %v", w.name, lv("attr.exec_share"), lv("trace.overhead_ratio"))
			}
		})
	}
}

// TestSeedDrivesFaultRotation: the seed reaches the program only through
// generated inputs, and the order of kv_heal's recovery targets is one.
func TestSeedDrivesFaultRotation(t *testing.T) {
	w, err := findWorkload("kv_heal")
	if err != nil {
		t.Fatal(err)
	}
	sc := fitWindows(w.scaleFor(w.ops/smokeScale, 0))
	rotation := func(seed int64) string {
		// The rotation is drawn during set-up.
		m, err := w.execute(sc, seed, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		return m.rotation
	}
	a, b := rotation(1), rotation(2)
	if a == "" || a == b {
		t.Errorf("rotation under seed 1 is %q, under seed 2 %q", a, b)
	}
	if again := rotation(1); again != a {
		t.Errorf("seed 1 gave rotation %q, then %q", a, again)
	}
}

// TestJudge pins -compare's verdicts.
func TestJudge(t *testing.T) {
	tight := func(x float64) value { return value{Value: x, Samples: []float64{x * 0.99, x, x, x * 1.01}} }
	wide := func(x float64) value { return value{Value: x, Samples: []float64{x * 0.7, x * 0.8, x * 1.2, x * 1.3}} }
	ops, virt, failed := ledgerIndex["wall_ops_per_s"], ledgerIndex["virt_us_per_op"], ledgerIndex["failed_ops_ratio"]
	for _, c := range []struct {
		d    metricDef
		a, b value
		want string
	}{
		{ops, tight(1000), tight(1000 * (1 - ops.Bound/2)), verdictOK},
		{ops, tight(1000), tight(1000 * (1 - ops.Bound*2)), verdictRegression},
		{ops, tight(1000), tight(1000 * (1 + ops.Bound*2)), verdictBetter},
		{ops, tight(1000), wide(1000), verdictUnresolved},
		{ops, wide(1000), wide(3000), verdictBetter}, // every sample of b beats every sample of a
		{virt, value{Value: 58.08}, value{Value: 58.08}, verdictSame},
		{virt, value{Value: 58.08}, value{Value: 58.07}, verdictChanged},
		{failed, value{Value: 0}, value{Value: 0.001}, verdictChanged},
		{failed, value{Value: 0.001}, value{Value: 0}, verdictBetter},
	} {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.d.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}
