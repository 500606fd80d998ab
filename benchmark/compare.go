package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// Verdicts of one workload x metric row.
const (
	verdictSame       = "same"       // exact metric, identical
	verdictChanged    = "CHANGED"    // exact metric differs: the modelled design moved
	verdictOK         = "ok"         // within the bound
	verdictBetter     = "better"     // better by more than the bound
	verdictRegression = "REGRESSION" // worse by more than the bound
	verdictUnresolved = "unresolved" // the spread is wider than the bound
)

// compareFiles applies each end-to-end metric's bound to two result files
// and prints one row per workload x metric. It fails on a regression, on a
// changed exact metric and on a higher failed_ops_ratio.
func compareFiles(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("usage: bash benchmark/run.sh -compare a.json b.json")
	}
	var files [2]resultFile
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tclock\ta\tb\tb/a\tbound\tverdict")
	bad := 0
	for _, ra := range files[0].Runs {
		if ra.Trace != 0 {
			continue // end-to-end metrics are judged on the untraced runs
		}
		rb := findRun(files[1].Runs, ra.Workload)
		if rb == nil {
			return fmt.Errorf("%s has no untraced %s run", paths[1], ra.Workload)
		}
		for _, d := range ledger {
			va, ok := ra.Metrics[d.Name]
			vb, okb := rb.Metrics[d.Name]
			if d.Layer != "e2e" || !ok || !okb {
				continue
			}
			verdict := judge(d, va, vb)
			if verdict == verdictRegression || verdict == verdictChanged {
				bad++
			}
			bound := "exact"
			if !d.exact() {
				bound = fmt.Sprintf("%.0f%%", d.Bound*100)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t%.3f\t%s\t%s\n",
				ra.Workload, d.Name, d.Clock, va.Value, vb.Value, ratio(vb.Value, va.Value), bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d end-to-end rows regressed or changed", bad)
	}
	return nil
}

// findRun returns the untraced run of a workload.
func findRun(runs []*result, workload string) *result {
	for _, r := range runs {
		if r.Workload == workload && r.Trace == 0 {
			return r
		}
	}
	return nil
}

// judge compares b against the baseline a. An exact metric must be
// identical (for failed_ops_ratio, not higher). A bounded one compares
// medians; when either side's interquartile spread is wider than the
// bound the row is unresolved, unless every sample of b beats every
// sample of a.
func judge(d metricDef, a, b value) string {
	worse := func(x, y float64) bool { // x is worse than y
		if d.Better == "higher" {
			return x < y
		}
		return x > y
	}
	if d.exact() {
		switch {
		case a.Value == b.Value:
			return verdictSame
		case d.Name == "failed_ops_ratio" && !worse(b.Value, a.Value):
			return verdictBetter
		}
		return verdictChanged
	}
	if spread(a) > d.Bound || spread(b) > d.Bound {
		if len(a.Samples) > 0 && len(b.Samples) > 0 && allBetter(b.Samples, a.Samples, worse) {
			return verdictBetter
		}
		return verdictUnresolved
	}
	limit := a.Value * d.Bound
	switch {
	case worse(b.Value, a.Value) && math.Abs(b.Value-a.Value) > limit:
		return verdictRegression
	case worse(a.Value, b.Value) && math.Abs(b.Value-a.Value) > limit:
		return verdictBetter
	}
	return verdictOK
}

// spread is the distance between the first and third quartile of a
// value's samples as a share of their median; zero without samples.
func spread(v value) float64 {
	if len(v.Samples) < 4 {
		return 0
	}
	s := append([]float64(nil), v.Samples...)
	sort.Float64s(s)
	q := func(p float64) float64 { return s[int(p*float64(len(s)-1))] }
	return ratio(q(0.75)-q(0.25), median(s))
}

func allBetter(b, a []float64, worse func(x, y float64) bool) bool {
	for _, x := range b {
		for _, y := range a {
			if !worse(y, x) {
				return false
			}
		}
	}
	return true
}
