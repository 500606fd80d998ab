package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"vampos/internal/trace"
)

// Suite runs every experiment and renders the full report.
type Suite struct {
	Scale Scale

	Fig5     *Fig5Result
	Table3   *Table3Result
	Fig6     *Fig6Result
	Fig7     *Fig7Result
	Table4   *Table4Result
	Table5   *Table5Result
	Fig8     *Fig8Result
	Ablate   *AblationResult
	Recovery *RecoveryResult
	Aging    *AgingResult
	Cluster  *ClusterResult
	Micro    *MicrorebootResult
	Defense  *DefenseResult
	Scaling  *ScalingResult
}

// experiment is one entry of the suite: run executes it at the suite's
// scale, stores the result in its Suite field and renders it.
type experiment struct {
	name string
	run  func(*Suite) (string, error)
}

// entry binds an experiment's runner to the Suite field that keeps its
// result.
func entry[R interface{ Render() string }](name string, run func(Scale) (R, error), field func(*Suite) *R) experiment {
	return experiment{name, func(s *Suite) (string, error) {
		res, err := run(s.Scale)
		if err != nil {
			return "", err
		}
		*field(s) = res
		return res.Render(), nil
	}}
}

// experiments lists the suite in the order "all" runs it.
var experiments = []experiment{
	entry("fig5", RunFig5, func(s *Suite) **Fig5Result { return &s.Fig5 }),
	entry("table3", RunTable3, func(s *Suite) **Table3Result { return &s.Table3 }),
	entry("fig6", RunFig6, func(s *Suite) **Fig6Result { return &s.Fig6 }),
	entry("fig7", RunFig7, func(s *Suite) **Fig7Result { return &s.Fig7 }),
	entry("table4", RunTable4, func(s *Suite) **Table4Result { return &s.Table4 }),
	entry("table5", RunTable5, func(s *Suite) **Table5Result { return &s.Table5 }),
	entry("fig8", RunFig8, func(s *Suite) **Fig8Result { return &s.Fig8 }),
	entry("ablation", RunAblation, func(s *Suite) **AblationResult { return &s.Ablate }),
	entry("recovery", RunRecovery, func(s *Suite) **RecoveryResult { return &s.Recovery }),
	entry("aging", RunAging, func(s *Suite) **AgingResult { return &s.Aging }),
	entry("cluster", RunCluster, func(s *Suite) **ClusterResult { return &s.Cluster }),
	entry("microreboot", RunMicroreboot, func(s *Suite) **MicrorebootResult { return &s.Micro }),
	entry("defense", RunDefense, func(s *Suite) **DefenseResult { return &s.Defense }),
	entry("scaling", RunScaling, func(s *Suite) **ScalingResult { return &s.Scaling }),
}

// ExperimentNames lists the runnable experiment ids.
func ExperimentNames() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.name
	}
	return out
}

// Run executes the named experiment ("all" runs everything), writing
// progress and rendered tables to w.
func (s *Suite) Run(name string, w io.Writer) error {
	ran := false
	for _, e := range experiments {
		if name != "all" && name != "" && name != e.name {
			continue
		}
		ran = true
		timer := startWallTimer()
		fmt.Fprintf(w, "--- running %s ...\n", e.name)
		out, err := e.run(s)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", e.name, err)
		}
		fmt.Fprintln(w, out)
		fmt.Fprintf(w, "--- %s done in %v (wall)\n\n", e.name, timer.Elapsed().Round(time.Millisecond))
	}
	if !ran {
		return fmt.Errorf("bench: unknown experiment %q (have %v)", name, ExperimentNames())
	}
	return nil
}

// WriteJSON emits every populated result as machine-readable JSON.
// Durations are nanoseconds, matching encoding/json's time.Duration
// representation. Unrun experiments appear as null.
func (s *Suite) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteTrace merges the flight recorders of every trace-producing
// experiment that ran (fig6, fig8) into one Chrome trace-event file.
func (s *Suite) WriteTrace(w io.Writer) error {
	var recs []*trace.Recorder
	if s.Fig6 != nil {
		recs = append(recs, s.Fig6.Recorders()...)
	}
	if s.Fig8 != nil {
		recs = append(recs, s.Fig8.Recorders()...)
	}
	if len(recs) == 0 {
		return fmt.Errorf("bench: no traced experiment ran (fig6 and fig8 produce traces)")
	}
	return trace.WriteChrome(w, recs...)
}
