// Command benchmark is the repository's performance instrument: four
// long-running workloads, twelve end-to-end metrics and a hundred
// per-layer metrics, measured from outside the program through its public
// functions. README.md explains how to run it and how to read it. It is a
// module of its own; run.sh builds it and passes its arguments on, from the
// root of the repository:
//
//	bash benchmark/run.sh -workload all -seed 1 -out benchmark/out/result.json
//	bash benchmark/run.sh -workload echo_rtt -seed 7 -seconds 20 -trace 0
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

const (
	// procs pins GOMAXPROCS: the reference box has two cores, kv_sharded
	// runs two shards, and the simulated clients are cooperative threads,
	// so the load generator adds no OS threads of its own.
	procs = 2
	// layerCalls is the number of calls behind each per-call T row.
	layerCalls = 10000
	// eventBudget is the flight recorder's ring capacity in the traced
	// segment. The segment is cut to the ops whose events fit, so nothing
	// is dropped, and the Chrome trace stays loadable.
	eventBudget = 1 << 18
	// extraSetups is how many more times a run sets the workload up, after
	// its timed phase, to report setup_s as a median.
	extraSetups = 4
)

type options struct {
	workload   string
	seed       int64
	seconds    float64
	ops        int
	trace      int
	out        string
	cpuProfile string
	memProfile string
}

// defaultOutDir is where results and traces go unless -out names a file
// elsewhere; benchmark/.gitignore keeps it out of the repository.
const defaultOutDir = "benchmark/out"

func (o options) outDir() string {
	if o.out != "" {
		return filepath.Dir(o.out)
	}
	return defaultOutDir
}

func main() {
	var o options
	var compareMode bool
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all to run the four in fresh child processes")
	flag.Int64Var(&o.seed, "seed", 1, "seed of key order, payload bytes and fault rotation")
	flag.Float64Var(&o.seconds, "seconds", 0, "end the timed phase at the first window boundary after this much wall time")
	flag.IntVar(&o.ops, "ops", 0, "end the timed phase after this many ops (default: the workload's fixed count, unless -seconds is given)")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics, with a traced segment")
	flag.StringVar(&o.out, "out", "", "write the full result, per-window samples included, to this JSON file; traces go beside it (default directory: "+defaultOutDir+")")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of a single workload to this file")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a heap profile of a single workload to this file")
	flag.BoolVar(&compareMode, "compare", false, "compare two result files: -compare a.json b.json")
	flag.Parse()

	var err error
	switch {
	case compareMode:
		err = compareFiles(flag.Args())
	case o.workload == "all":
		err = runAll(o)
	default:
		err = runChild(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runChild measures one workload in this process and prints its metrics
// by name; the last line of standard output is the driver's JSON object.
// A failed oracle prints no numbers.
func runChild(o options) error {
	runtime.GOMAXPROCS(procs)
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	sc := w.scaleFor(o.ops, o.seconds)
	var res *result
	if o.trace == 0 {
		res, err = endToEnd(w, sc, o.seed)
	} else {
		res, err = perLayer(w, sc, o.seed, layerCalls, filepath.Join(o.outDir(), "trace-"+w.name+".json"))
	}
	if err != nil {
		return err
	}
	if o.memProfile != "" {
		f, err := os.Create(o.memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, res); err != nil {
			return err
		}
	}
	fmt.Print(res.table())
	line, err := json.Marshal(res.contractLine())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// scaleFor sizes one execution: ops timed ops, or as many as fit into
// seconds of wall time, or the workload's fixed count when neither is
// given. The warm-up is 2 % of the op count.
func (w *workload) scaleFor(ops int, seconds float64) scale {
	if ops == 0 && seconds == 0 {
		ops = w.ops
	}
	sc := scale{window: w.window, warmup: w.ops / 50, maxOps: ops, seconds: time.Duration(seconds * float64(time.Second))}
	if ops > 0 {
		sc.warmup = ops / 50
	}
	return sc
}

// fitWindows rounds a scale's op limit to whole windows, shrinking the
// window when fewer than ten would fit: the median needs samples.
func fitWindows(sc scale) scale {
	if sc.maxOps > 0 {
		if sc.maxOps < 10*sc.window {
			sc.window = max(sc.maxOps/10, 1)
		}
		sc.maxOps = max(sc.maxOps/sc.window, 1) * sc.window
	}
	return sc
}

// endToEnd is an untraced run: the timed phase first, on a clean heap,
// then extraSetups more set-ups for the setup_s median.
func endToEnd(w *workload, sc scale, seed int64) (*result, error) {
	sc = fitWindows(sc)
	m, err := w.execute(sc, seed, false, nil)
	if err != nil {
		return nil, err
	}
	setups := []float64{m.setup.Seconds()}
	for i := 0; i < extraSetups; i++ {
		s, err := w.execute(sc, seed, true, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
	}
	v := measured(m)
	v.set("setup_s", median(setups), setups...)
	return newResult(w, seed, 0, m, v), nil
}

// perLayer is a traced run in three parts: an untraced segment for the C
// rows, the T batches, and a traced segment for the R rows. The traced
// segment is cut to the ops whose events fit the recorder, so it is much
// shorter than the untraced one; trace.overhead_ratio compares the two.
func perLayer(w *workload, sc scale, seed int64, calls int, traceOut string) (*result, error) {
	spans := newSpanLog()
	sc.seconds /= 2
	sc = fitWindows(sc)
	m, err := w.execute(sc, seed, false, nil)
	if err != nil {
		return nil, err
	}
	v := measured(m)
	delete(v, "setup_s")

	layer, err := runLayers(w, calls, spans)
	if err != nil {
		return nil, err
	}

	tsc := sc
	if fits := eventBudget * 8 / 10 / w.events; tsc.maxOps == 0 || tsc.maxOps > fits {
		tsc.maxOps = fits
	}
	tsc.window = max(tsc.maxOps/10, 1)
	tsc.warmup = min(tsc.warmup, tsc.maxOps/10)
	tsc = fitWindows(tsc)
	tm, err := w.execute(tsc, seed, false, spans)
	if err != nil {
		return nil, err
	}
	for name, mv := range layer {
		v[name] = mv
	}
	for name, mv := range traced(tm, v, layer) {
		v[name] = mv
	}
	if err := writeChromeTrace(traceOut, spans, tm.rec, tm.recT0); err != nil {
		return nil, err
	}
	return newResult(w, seed, 1, m, v), nil
}

func newResult(w *workload, seed int64, traceMode int, m *measurement, v values) *result {
	return &result{
		Workload: w.name, Seed: seed, Trace: traceMode, Ops: m.ops,
		Correct: true, Attempted: m.attempted, Failed: m.failed,
		Metrics: v, Rotation: m.rotation,
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// hostInfo describes the machine and build a result file came from.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// resultFile is what -workload all writes and -compare reads.
type resultFile struct {
	Host hostInfo  `json:"host"`
	Seed int64     `json:"seed"`
	Runs []*result `json:"runs"`
	// Claim is the performance claim the file backs; the benchmark itself
	// makes none.
	Claim *string `json:"claim"`
}

// runAll runs every workload twice — untraced at its fixed op count, then
// traced at a fifth of it — each in a fresh child process, so no workload
// inherits another's heap.
func runAll(o options) error {
	if o.out == "" {
		o.out = filepath.Join(defaultOutDir, "result.json")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	commit := "unknown"
	if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(rev))
	}
	file := resultFile{
		Host: hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: procs, Go: runtime.Version(), Commit: commit},
		Seed: o.seed,
	}
	for _, w := range workloads {
		ops := w.ops
		if o.ops > 0 {
			ops = o.ops
		}
		for traceMode, n := range []int{ops, ops / 5} {
			part := filepath.Join(o.outDir(), fmt.Sprintf("%s-trace%d.json", w.name, traceMode))
			cmd := exec.Command(self,
				"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-ops", fmt.Sprint(n),
				"-trace", fmt.Sprint(traceMode), "-out", part)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s -trace %d: %w", w.name, traceMode, err)
			}
			data, err := os.ReadFile(part)
			if err != nil {
				return err
			}
			var res result
			if err := json.Unmarshal(data, &res); err != nil {
				return fmt.Errorf("%s: %w", part, err)
			}
			file.Runs = append(file.Runs, &res)
		}
	}
	return writeJSON(o.out, file)
}
