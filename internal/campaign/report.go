package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"vampos/internal/core"
	"vampos/internal/trace"
)

// CellResult is one judged trial. Every JSON-serialised field is
// deterministic for a given campaign seed: virtual durations, verdicts
// and oracle outputs are identical whatever -parallel is, so matrices
// from different runs and different hosts diff cleanly.
type CellResult struct {
	Cell
	TrialID    string         `json:"id"`
	Verdict    Verdict        `json:"verdict"`
	After      int            `json:"after"` // seed-derived injection ordinal
	Oracles    []OracleResult `json:"oracles"`
	Detail     string         `json:"detail,omitempty"`
	Virtual    time.Duration  `json:"virtual_ns"`
	Reboots    int            `json:"reboots"`
	ClientErrs int            `json:"client_errors"`
	TraceFile  string         `json:"trace_file,omitempty"`

	recorder *trace.Recorder
}

// Matrix is the campaign's recovery matrix: every cell's verdict plus
// the seed that reproduces it.
type Matrix struct {
	Seed  int64        `json:"seed"`
	Cells []CellResult `json:"cells"`
}

// Unexpected returns the cells that count as regressions: failures on
// expected-recoverable cells, plus wildcard fault sites that never
// triggered (the drivers guarantee wildcard sites are reached).
func (m *Matrix) Unexpected() []CellResult {
	var out []CellResult
	for _, c := range m.Cells {
		if c.Verdict == VerdictFail {
			out = append(out, c)
		}
		if c.Verdict == VerdictNotTriggered && c.Function == core.AnyFunction {
			out = append(out, c)
		}
	}
	return out
}

// Counts tallies verdicts.
func (m *Matrix) Counts() map[Verdict]int {
	out := make(map[Verdict]int)
	for _, c := range m.Cells {
		out[c.Verdict]++
	}
	return out
}

// WriteJSON serialises the matrix. The output is byte-identical across
// -parallel settings and hosts for the same seed and space.
func (m *Matrix) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// Render draws the recovery matrix as one grid per workload × config:
// components down, fault kinds across.
func (m *Matrix) Render() string {
	symbol := map[Verdict]string{
		VerdictPass:         "pass",
		VerdictFail:         "FAIL",
		VerdictExpected:     "exp-unrec",
		VerdictNotTriggered: "not-trig",
	}
	type gridKey struct{ w, c string }
	grids := make(map[gridKey]map[string]map[FaultName][]CellResult)
	var gridOrder []gridKey
	var faultOrder []FaultName
	seenFault := map[FaultName]bool{}
	for _, cell := range m.Cells {
		k := gridKey{cell.Workload, cell.Config}
		if grids[k] == nil {
			grids[k] = make(map[string]map[FaultName][]CellResult)
			gridOrder = append(gridOrder, k)
		}
		if grids[k][cell.Component] == nil {
			grids[k][cell.Component] = make(map[FaultName][]CellResult)
		}
		grids[k][cell.Component][cell.Fault] = append(grids[k][cell.Component][cell.Fault], cell)
		if !seenFault[cell.Fault] {
			seenFault[cell.Fault] = true
			faultOrder = append(faultOrder, cell.Fault)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "== Recovery matrix (seed %d, %d trials) ==\n", m.Seed, len(m.Cells))
	for _, k := range gridOrder {
		fmt.Fprintf(&b, "\n-- %s on %s --\n", k.w, k.c)
		comps := make([]string, 0, len(grids[k]))
		for c := range grids[k] {
			comps = append(comps, c)
		}
		sort.Strings(comps)
		width := 12
		for _, f := range faultOrder {
			if len(f)+2 > width {
				width = len(f) + 2
			}
		}
		fmt.Fprintf(&b, "  %-10s", "component")
		for _, f := range faultOrder {
			fmt.Fprintf(&b, "%-*s", width, f)
		}
		b.WriteByte('\n')
		for _, comp := range comps {
			fmt.Fprintf(&b, "  %-10s", comp)
			for _, f := range faultOrder {
				cells := grids[k][comp][f]
				switch {
				case len(cells) == 0:
					fmt.Fprintf(&b, "%-*s", width, "-")
				case len(cells) == 1:
					fmt.Fprintf(&b, "%-*s", width, symbol[cells[0].Verdict])
				default:
					// Per-function campaign: summarise the column.
					counts := map[Verdict]int{}
					for _, c := range cells {
						counts[c.Verdict]++
					}
					fmt.Fprintf(&b, "%-*s", width, fmt.Sprintf("%d/%d ok", counts[VerdictPass], len(cells)))
				}
			}
			b.WriteByte('\n')
		}
	}
	counts := m.Counts()
	fmt.Fprintf(&b, "\ntotals: %d pass, %d fail, %d expected-unrecoverable, %d not-triggered\n",
		counts[VerdictPass], counts[VerdictFail], counts[VerdictExpected], counts[VerdictNotTriggered])
	for _, c := range m.Unexpected() {
		fmt.Fprintf(&b, "UNEXPECTED %s: %s\n", c.TrialID, c.Detail)
	}
	return b.String()
}

// traceFileName maps a cell ID to its forensics dump file name.
func traceFileName(id string) string {
	return strings.ReplaceAll(id, "/", "_") + ".trace.json"
}

// dumpTrace writes the trial's Chrome trace into dir for post-mortem
// loading at ui.perfetto.dev / chrome://tracing.
func dumpTrace(dir string, res *CellResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, traceFileName(res.TrialID))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.WriteChrome(f, res.recorder); err != nil {
		return err
	}
	res.TraceFile = path
	return nil
}
