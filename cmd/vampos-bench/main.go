// Command vampos-bench regenerates the tables and figures of the
// paper's evaluation (§VII) and prints them as text tables.
//
// Usage:
//
//	vampos-bench [-exp all|fig5|table3|fig6|fig7|table4|table5|fig8|ablation|recovery|aging|cluster|microreboot|defense|scaling]
//	             [-scale default|paper] [-json results.json] [-trace trace.json]
//	             [-ckpt-every N] [-ckpt-threshold N]
//	             [-aging period] [-aging-leak B/s] [-aging-frag ratio]
//
// The default scale keeps the whole suite within tens of seconds of wall
// time; -scale paper uses the paper's workload parameters (1,000,000
// Redis SETs, 100 siege clients, …) and takes correspondingly longer.
// Absolute times come from the calibrated virtual-time cost model; the
// reproduced claims are the shapes: orderings, ratios, and who wins
// where (see EXPERIMENTS.md).
//
// -json writes the raw results as machine-readable JSON. -trace writes
// the merged flight-recorder trace of the traced experiments (fig6,
// fig8) in Chrome trace-event format; load it at ui.perfetto.dev or
// chrome://tracing.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"vampos/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, "+strings.Join(bench.ExperimentNames(), ", "))
	scaleName := flag.String("scale", "default", "workload scale: default or paper")
	jsonPath := flag.String("json", "", "write results as machine-readable JSON to this file")
	tracePath := flag.String("trace", "", "write the merged Chrome trace of traced experiments to this file")
	ckptEvery := flag.Int("ckpt-every", 0, "override the recovery figure's checkpoint cadence (completed calls; 0 = scale default)")
	ckptThresh := flag.Int("ckpt-threshold", 0, "add a log-length checkpoint trigger to the recovery figure's on arm (records; 0 = off)")
	agingPeriod := flag.Duration("aging", 0, "override the aging figure's adaptive sensor sample period (0 = scale default)")
	agingLeak := flag.Float64("aging-leak", 0, "override the aging figure's leak-slope threshold (bytes per virtual second; 0 = scale default, negative = sensor off)")
	agingFrag := flag.Float64("aging-frag", 0, "enable/override the aging figure's fragmentation threshold in [0,1] (0 = scale default, negative = sensor off)")
	flag.Parse()

	var scale bench.Scale
	switch *scaleName {
	case "default":
		scale = bench.DefaultScale()
	case "paper":
		scale = bench.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "vampos-bench: unknown scale %q (want default or paper)\n", *scaleName)
		os.Exit(2)
	}

	if *ckptEvery > 0 {
		scale.RecoveryCkptEvery = *ckptEvery
	}
	if *ckptThresh > 0 {
		scale.RecoveryCkptThreshold = *ckptThresh
	}
	if *agingPeriod > 0 {
		scale.AgingSamplePeriod = *agingPeriod
	}
	if *agingLeak != 0 {
		scale.AgingLeakSlope = *agingLeak
	}
	if *agingFrag != 0 {
		scale.AgingFrag = *agingFrag
	}

	suite := &bench.Suite{Scale: scale}
	if err := suite.Run(*exp, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "vampos-bench: %v\n", err)
		os.Exit(1)
	}
	if *jsonPath != "" {
		if err := writeFile(*jsonPath, suite.WriteJSON); err != nil {
			fmt.Fprintf(os.Stderr, "vampos-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("results written to %s\n", *jsonPath)
	}
	if *tracePath != "" {
		if err := writeFile(*tracePath, suite.WriteTrace); err != nil {
			fmt.Fprintf(os.Stderr, "vampos-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s (open at ui.perfetto.dev)\n", *tracePath)
	}
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
