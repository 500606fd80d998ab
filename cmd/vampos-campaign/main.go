// Command vampos-campaign runs a SWIFI-style fault-injection campaign
// over the VampOS model and prints the recovery matrix. Flags slice the
// space (-h lists every value, and the default slice an empty flag
// takes); -seed/-trial reproduce any cell in isolation, and -trace-dir
// captures a Chrome trace for each failing trial.
//
// Exit status is 1 when any cell fails unexpectedly (expected-
// unrecoverable VIRTIO cells never count), 2 on usage errors, among them
// a selection that yields no cell.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"vampos/internal/campaign"
	"vampos/internal/ckpt"
)

func main() {
	workloadChoices, configChoices, faultChoices := campaign.Choices()
	var (
		workloads  = flag.String("workloads", "", "comma-separated workloads: "+workloadChoices)
		configs    = flag.String("configs", "", "comma-separated configs: "+configChoices)
		components = flag.String("components", "", "comma-separated target components (victim members nodeK on the cluster plane); empty = every linked component")
		faultsF    = flag.String("faults", "", "comma-separated faults, each run on the workloads of its plane: "+faultChoices)
		seed       = flag.Int64("seed", 1, "campaign seed; every trial's randomness derives from it")
		trial      = flag.String("trial", "", "run only these cell IDs (comma-separated, as -list prints them)")
		parallel   = flag.Int("parallel", 0, "worker-pool size; 0 = GOMAXPROCS")
		shards     = flag.Int("shards", 0, "shard-baton count per trial instance (0 = legacy single baton; results are byte-identical across counts)")
		jsonOut    = flag.String("json", "", "write the recovery matrix as JSON to this file")
		traceDir   = flag.String("trace-dir", "", "dump a Chrome trace for every failing trial into this directory")
		list       = flag.Bool("list", false, "print the enumerated cell IDs and exit without running")
		ckptEvery  = flag.Int("ckpt-every", 0, "incremental checkpoint cadence: re-checkpoint each eligible component after N completed calls (0 = paper behaviour, post-init checkpoint only)")
	)
	flag.Parse()
	var faults []campaign.FaultName
	for _, f := range splitList(*faultsF) {
		faults = append(faults, campaign.FaultName(f))
	}

	opts := campaign.Options{
		Space: campaign.SpaceOptions{
			Workloads:  splitList(*workloads),
			Configs:    splitList(*configs),
			Components: splitList(*components),
			Faults:     faults,
		},
		Seed:     *seed,
		Parallel: *parallel,
		Shards:   *shards,
		TraceDir: *traceDir,
		Trials:   splitList(*trial),
		Ckpt:     ckpt.Policy{EveryCalls: *ckptEvery},
	}

	if *list {
		cells, err := campaign.EnumerateSpace(opts.Space)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		for _, c := range cells {
			fmt.Println(c.ID())
		}
		fmt.Fprintf(os.Stderr, "%d cells\n", len(cells))
		return
	}

	start := time.Now()
	matrix, err := campaign.Run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Print(matrix.Render())
	fmt.Fprintf(os.Stderr, "campaign wall time: %v (parallel=%d)\n", time.Since(start).Round(time.Millisecond),
		campaign.PoolSize(*parallel, len(matrix.Cells)))

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := matrix.WriteJSON(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	if unexpected := matrix.Unexpected(); len(unexpected) > 0 {
		fmt.Fprintf(os.Stderr, "%d unexpected failures\n", len(unexpected))
		os.Exit(1)
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
