package bench

import (
	"fmt"
	"strings"
	"time"

	"vampos/internal/apps/nginx"
	"vampos/internal/sched"
	"vampos/internal/trace"
	"vampos/internal/unikernel"
)

// Fig6Target is one reboot-time measurement target.
type Fig6Target struct {
	Label  string
	Config ConfigName // configuration in which this target exists
	Comp   string     // component to reboot (reboots the whole group)
}

// Fig6Targets mirrors the paper's six bars: one stateless component,
// the three stateful ones, and the two merged composites.
func Fig6Targets() []Fig6Target {
	return []Fig6Target{
		{Label: "PROCESS", Config: DaS, Comp: "process"},
		{Label: "VFS", Config: DaS, Comp: "vfs"},
		{Label: "LWIP", Config: DaS, Comp: "lwip"},
		{Label: "9PFS", Config: DaS, Comp: "9pfs"},
		{Label: "VFS+9PFS", Config: FSm, Comp: "vfs"},
		{Label: "LWIP+NETDEV", Config: NETm, Comp: "lwip"},
	}
}

// Fig6Row is one measured bar.
type Fig6Row struct {
	Target   Fig6Target
	Virtual  Stat
	Replayed int // log entries replayed on the last reboot
	Pages    int // snapshot pages restored on the last reboot
	// Phases is the per-phase virtual-time breakdown
	// (quiesce/restore/replay/resume) across trials, reconstructed from
	// the flight-recorder trace. The phase sums are checked against the
	// runtime's RebootRecords, so the two sources cannot disagree.
	Phases map[string]Stat
}

// Fig6Result is the component reboot time figure.
type Fig6Result struct {
	Trials int
	Rows   []Fig6Row

	recorders []*trace.Recorder
}

// Recorders returns the per-target flight recorders, for trace export.
func (r *Fig6Result) Recorders() []*trace.Recorder { return r.recorders }

// RunFig6 measures component reboot times after warming Nginx with GET
// requests, as the paper does (1,000 GETs, then reboot each component).
func RunFig6(scale Scale) (*Fig6Result, error) {
	res := &Fig6Result{Trials: scale.RebootTrials}
	for _, target := range Fig6Targets() {
		row, rec, err := runFig6Target(target, scale)
		if err != nil {
			return nil, fmt.Errorf("fig6 %s: %w", target.Label, err)
		}
		res.Rows = append(res.Rows, *row)
		res.recorders = append(res.recorders, rec)
	}
	return res, nil
}

func runFig6Target(target Fig6Target, scale Scale) (*Fig6Row, *trace.Recorder, error) {
	// The flight recorder is the source of truth for the phase breakdown;
	// it observes the same virtual clock as the RebootRecords, so the two
	// are cross-checked below. Recording never advances virtual time, so
	// attaching it cannot perturb the measurement.
	var rec *trace.Recorder
	prep := func(inst *unikernel.Instance) error {
		if err := seedIndex(inst); err != nil {
			return err
		}
		rec = inst.NewTracer("fig6/" + strings.ToLower(target.Label))
		return nil
	}
	row := &Fig6Row{Target: target}
	err := runInstance(fullProfile(coreConfig(target.Config)), prep, func(s *unikernel.Sys, inst *unikernel.Instance) error {
		app := nginx.New()
		if err := s.StartApp(app); err != nil {
			return err
		}
		// Warm-up: the paper sends 1,000 GETs before measuring, so the
		// logs hold a realistic request history.
		peer := s.NewPeer()
		warmDone := false
		var warmErr error
		s.GoHost("fig6/warm", func(th *sched.Thread) {
			defer func() { warmDone = true }()
			c, err := DialHTTP(s, th, peer, nginx.DefaultPort, 2*time.Second)
			if err != nil {
				warmErr = err
				return
			}
			for i := 0; i < scale.RebootWarmGETs; i++ {
				if _, err := c.Get("/index.html", 2*time.Second); err != nil {
					warmErr = err
					return
				}
			}
			c.Close()
		})
		for !warmDone {
			s.Sleep(time.Millisecond)
		}
		if warmErr != nil {
			return warmErr
		}
		var virt []time.Duration
		for trial := 0; trial < scale.RebootTrials; trial++ {
			r, err := rebootRecord(s, target.Comp)
			if err != nil {
				return err
			}
			virt = append(virt, r.VirtualDuration)
			row.Replayed = r.ReplayedEntries
			row.Pages = r.RestoredPages
		}
		row.Virtual = NewStat(virt)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if err := fillFig6Phases(row, rec, scale.RebootTrials); err != nil {
		return nil, nil, err
	}
	return row, rec, nil
}

// fillFig6Phases reconstructs the per-phase breakdown from the trace and
// cross-checks it against the RebootRecord-derived totals already in the
// row. Any disagreement is a bug in the instrumentation, not a
// measurement artifact, so it is an error rather than a footnote.
func fillFig6Phases(row *Fig6Row, rec *trace.Recorder, trials int) error {
	tls := trace.RebootTimelines(rec.Snapshot(), trace.KindReboot)
	if len(tls) != trials {
		return fmt.Errorf("trace/record divergence: %d reboot spans in trace, %d trials", len(tls), trials)
	}
	perPhase := make(map[string][]time.Duration)
	for i, tl := range tls {
		if tl.Failed {
			return fmt.Errorf("trace/record divergence: trial %d reboot span marked failed", i)
		}
		var sum time.Duration
		for _, name := range trace.PhaseNames() {
			d := tl.Phases[name]
			perPhase[name] = append(perPhase[name], d)
			sum += d
		}
		if sum != tl.Virtual() {
			return fmt.Errorf("trace/record divergence: trial %d phases sum to %v, reboot span is %v", i, sum, tl.Virtual())
		}
	}
	// The trace-side totals must match the RebootRecords byte for byte:
	// both read the same virtual clock at the same points.
	fromTrace := make([]time.Duration, len(tls))
	for i, tl := range tls {
		fromTrace[i] = tl.Virtual()
	}
	if got, want := NewStat(fromTrace), row.Virtual; got != want {
		return fmt.Errorf("trace/record divergence: trace totals %+v, record totals %+v", got, want)
	}
	row.Phases = make(map[string]Stat, len(perPhase))
	for name, ds := range perPhase {
		row.Phases[name] = NewStat(ds)
	}
	return nil
}

// Render produces the Fig. 6 table.
func (r *Fig6Result) Render() string {
	t := &table{
		title:   fmt.Sprintf("Fig. 6 — component reboot time (%d trials, after warm-up GETs)", r.Trials),
		headers: []string{"component", "virtual mean", "±std", "max", "quiesce", "restore", "replay", "resume", "replayed", "snap pages"},
	}
	for _, row := range r.Rows {
		phase := func(name string) string {
			s, ok := row.Phases[name]
			if !ok {
				return "-"
			}
			return fmtDur(s.Mean)
		}
		t.addRow(
			row.Target.Label,
			fmtDur(row.Virtual.Mean),
			fmtDur(row.Virtual.StdDev),
			fmtDur(row.Virtual.Max),
			phase(trace.PhaseQuiesce),
			phase(trace.PhaseRestore),
			phase(trace.PhaseReplay),
			phase(trace.PhaseResume),
			fmt.Sprintf("%d", row.Replayed),
			fmt.Sprintf("%d", row.Pages),
		)
	}
	t.addNote("phase columns are trial means derived from the flight-recorder trace and cross-checked against the runtime's reboot records")
	t.addNote("stateless reboots skip snapshot restore and replay; snapshot load dominates stateful reboots (paper: <48 ms, PROCESS <7.5 µs)")
	return t.String()
}
