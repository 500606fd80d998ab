// Command vampos-bench regenerates the tables and figures of the
// paper's evaluation (§VII) and prints them as text tables.
//
// Usage:
//
//	vampos-bench [-exp all|fig5|table3|fig6|fig7|table4|table5|fig8|ablation|recovery|aging|cluster|microreboot|defense|scaling]
//	             [-scale default|paper] [-json results.json] [-trace trace.json]
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
