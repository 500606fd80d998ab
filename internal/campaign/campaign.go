// Package campaign is a SWIFI-style fault-injection campaign engine for
// the VampOS model: it enumerates the injection space straight off the
// component registries (component × fault site × fault kind × workload ×
// configuration), runs every cell as an isolated unikernel instance on a
// worker pool, judges each trial with recovery oracles (containment,
// transparent retry, application invariants, detection latency, trace
// completeness), and reports a recovery matrix. It generalises the
// paper's §VII single-fault experiments (the 9PFS crash of Fig. 8) to
// the whole component surface.
//
// Trials are deterministic: the per-trial seed derives from the
// campaign seed and the cell ID, the simulation runs on a virtual
// clock, and instances share no state — so any cell reproduces in
// isolation, and the matrix is identical whatever -parallel is.
package campaign

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"vampos/internal/ckpt"
)

// Options configures one campaign run.
type Options struct {
	Space SpaceOptions
	// Seed is the campaign seed every per-trial seed derives from.
	Seed int64
	// Parallel is the worker-pool size; 0 means GOMAXPROCS.
	Parallel int
	// TraceDir, when set, receives a Chrome trace dump for every failing
	// trial (and for expected-unrecoverable cells whose oracles failed).
	TraceDir string
	// Trials restricts the run to specific cell IDs (see Cell.ID) after
	// enumeration — the reproduce-one-cell knob.
	Trials []string
	// Ckpt, when enabled, turns on incremental quiescent-point
	// checkpointing for every checkpoint-eligible component of every
	// trial instance, and arms the checkpoint recovery oracle.
	Ckpt ckpt.Policy
	// Shards sets every trial instance's shard-baton count (core
	// Config.Shards): 0 keeps the legacy single-baton scheduler, any
	// positive count runs the deterministic round engine. Trial outcomes
	// and matrices are byte-identical across shard counts.
	Shards int
}

// Run enumerates the selected injection space and executes it.
func Run(opts Options) (*Matrix, error) {
	cells, err := EnumerateSpace(opts.Space)
	if err != nil {
		return nil, err
	}
	if len(opts.Trials) > 0 {
		var keep []Cell
		byID := make(map[string]Cell, len(cells))
		for _, c := range cells {
			byID[c.ID()] = c
		}
		for _, id := range opts.Trials {
			c, ok := byID[id]
			if !ok {
				return nil, fmt.Errorf("campaign: trial %q not in the enumerated space (%d cells; run with -list to see IDs)", id, len(cells))
			}
			keep = append(keep, c)
		}
		cells = keep
	}
	return RunCells(cells, opts)
}

// PoolSize is the number of workers RunCells starts for the given
// Options.Parallel and cell count: GOMAXPROCS when parallel is not
// positive, never more than the cells, and at least one.
func PoolSize(parallel, cells int) int {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	return max(1, min(parallel, cells))
}

// RunCells executes an explicit cell list on the worker pool. Results
// keep enumeration order regardless of completion order.
func RunCells(cells []Cell, opts Options) (*Matrix, error) {
	parallel := PoolSize(opts.Parallel, len(cells))
	results := make([]CellResult, len(cells))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = runTrial(cells[i], opts)
			}
		}()
	}
	for i := range cells {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	m := &Matrix{Seed: opts.Seed, Cells: results}
	var dumpErr error
	for i := range m.Cells {
		res := &m.Cells[i]
		needsDump := res.Verdict == VerdictFail ||
			(res.Verdict == VerdictExpected && res.Detail != "" &&
				slices.ContainsFunc(res.Oracles, func(o OracleResult) bool { return !o.OK }))
		// A trial that failed before its instance booted has no recorder,
		// and so no trace to dump.
		if needsDump && opts.TraceDir != "" && res.recorder != nil {
			if err := dumpTrace(opts.TraceDir, res); err != nil && dumpErr == nil {
				dumpErr = err
			}
		}
		res.recorder = nil // release trial memory
	}
	if dumpErr != nil {
		return m, fmt.Errorf("campaign: trace dump: %w", dumpErr)
	}
	return m, nil
}
