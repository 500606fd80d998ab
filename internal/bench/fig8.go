package bench

import (
	"fmt"
	"strings"
	"time"

	"vampos/internal/apps/redis"
	"vampos/internal/core"
	"vampos/internal/sched"
	"vampos/internal/trace"
	"vampos/internal/unikernel"
)

// Fig8Point is one latency probe: GET latency at a virtual-time offset.
type Fig8Point struct {
	At      time.Duration
	Latency time.Duration
	OK      bool
}

// Fig8Series is one recovery strategy's timeline.
type Fig8Series struct {
	Variant  Table5Variant
	Points   []Fig8Point
	Injected time.Duration // when the 9PFS fault fired
	// Outage is the span during which probes failed or stalled beyond
	// 5× the median pre-fault latency.
	Outage time.Duration
	// Recovery is the causal recovery timeline reconstructed from the
	// flight-recorder trace, cross-checked against the runtime's reboot
	// records. All times are offsets from the measurement start, like
	// Injected and the probe points.
	Recovery *Fig8Recovery
}

// Fig8Recovery is the trace-derived recovery chain for one variant. For
// VampOS it runs fault → crash → detection → component reboot; for the
// full-reboot baseline only the image restart span exists.
type Fig8Recovery struct {
	Fault       time.Duration // fault injection fired (zero for full reboot)
	Crash       time.Duration // component panicked (zero for full reboot)
	Detected    time.Duration // runtime observed the failure (zero for full reboot)
	RebootStart time.Duration
	RebootEnd   time.Duration
	// Phases breaks the component reboot into quiesce/restore/replay/
	// resume durations; empty for the full-reboot baseline, which has no
	// component-level phases.
	Phases map[string]time.Duration
}

// Fig8Result is the Redis failure-recovery comparison.
type Fig8Result struct {
	WarmKeys int
	Series   []Fig8Series

	recorders []*trace.Recorder
}

// Recorders returns the per-variant flight recorders, for trace export.
func (r *Fig8Result) Recorders() []*trace.Recorder { return r.recorders }

// RunFig8 reproduces the Redis failure-recovery case study (§VII-E):
// a warm Redis serves GETs; a fail-stop fault is injected into 9PFS;
// recovery is either VampOS's component reboot or the full reboot with
// its AOF reload.
func RunFig8(scale Scale) (*Fig8Result, error) {
	res := &Fig8Result{WarmKeys: scale.Fig8WarmKeys}
	for _, v := range []Table5Variant{VariantVampOS, VariantFullReboot} {
		series, rec, err := runFig8Variant(v, scale)
		if err != nil {
			return nil, fmt.Errorf("fig8 %s: %w", v, err)
		}
		res.Series = append(res.Series, *series)
		res.recorders = append(res.recorders, rec)
	}
	return res, nil
}

func runFig8Variant(variant Table5Variant, scale Scale) (*Fig8Series, *trace.Recorder, error) {
	var rec *trace.Recorder
	prep := func(inst *unikernel.Instance) error {
		// A bounded ring keeps memory flat over the long probe window; the
		// recovery chain (fault/crash/detect/reboot events) is sticky in the
		// recorder and survives ring wrap-around.
		rec = inst.NewTracer("fig8/"+string(variant), trace.WithCapacity(1<<16))
		return nil
	}
	series := &Fig8Series{Variant: variant}
	err := runInstance(fullProfile(coreConfig(DaS)), prep, func(s *unikernel.Sys, inst *unikernel.Instance) error {
		app := redis.New()
		if err := s.StartApp(app); err != nil {
			return err
		}
		// Warm the store in-process (the AOF gets every SET, so the
		// full-reboot variant pays the reload for all of them).
		for i := 0; i < scale.Fig8WarmKeys; i++ {
			resp := app.Execute(s, fmt.Sprintf("SET warm%06d %s", i, strings.Repeat("v", 16)))
			if !strings.HasPrefix(resp, "+OK") {
				return fmt.Errorf("warm SET: %s", strings.TrimSpace(resp))
			}
		}
		start := s.Elapsed()
		end := start + scale.Fig8Duration

		// Background GET load at the configured rate.
		loadDone := false
		peer := s.NewPeer()
		s.GoHost("fig8/load", func(th *sched.Thread) {
			defer func() { loadDone = true }()
			period := time.Second / time.Duration(scale.Fig8GETRate)
			var cl *RedisClient
			dial := func() bool {
				for s.Elapsed() < end {
					var err error
					cl, err = DialRedis(s, th, peer, redis.DefaultPort, time.Second)
					if err == nil {
						return true
					}
					th.Sleep(50 * time.Millisecond)
				}
				return false
			}
			if !dial() {
				return
			}
			n := 0
			for s.Elapsed() < end {
				key := fmt.Sprintf("warm%06d", n%scale.Fig8WarmKeys)
				n++
				if _, _, err := cl.Get(key, time.Second); err != nil {
					cl.Close()
					if !dial() {
						return
					}
				}
				th.Sleep(period)
			}
			cl.Close()
		})

		// Latency probe: one timed GET a second, as in the paper.
		probePeer := s.NewPeer()
		probeDone := false
		s.GoHost("fig8/probe", func(th *sched.Thread) {
			defer func() { probeDone = true }()
			var cl *RedisClient
			dial := func() bool {
				for s.Elapsed() < end {
					var err error
					cl, err = DialRedis(s, th, probePeer, redis.DefaultPort, time.Second)
					if err == nil {
						return true
					}
					th.Sleep(20 * time.Millisecond)
				}
				return false
			}
			if !dial() {
				return
			}
			clk := inst.Runtime().Clock()
			for s.Elapsed() < end {
				at := s.Elapsed() - start
				t0 := clk.Elapsed()
				_, _, err := cl.Get("warm000000", 4*time.Second)
				lat := clk.Elapsed() - t0
				series.Points = append(series.Points, Fig8Point{At: at, Latency: lat, OK: err == nil})
				if err != nil {
					cl.Close()
					if !dial() {
						return
					}
				}
				if sleep := time.Second - lat; sleep > 0 {
					th.Sleep(sleep)
				}
			}
			cl.Close()
		})

		// The controller waits for the injection instant, fires the
		// fault, and (for the baseline) performs the full reboot.
		s.Sleep(scale.Fig8InjectAt)
		series.Injected = s.Elapsed() - start
		switch variant {
		case VariantVampOS:
			// Fail-stop inside 9PFS on its next write: the very next
			// AOF append triggers it (paper: "we force 9PFS to call
			// panic() and trigger its reboot").
			if err := inst.Runtime().ArmFault("9pfs", "uk_9pfs_write", core.FaultCrash); err != nil {
				return err
			}
			// Issue one SET so the write path runs promptly.
			if resp := app.Execute(s, "SET trigger x"); !strings.HasPrefix(resp, "+OK") {
				return fmt.Errorf("trigger SET: %s", strings.TrimSpace(resp))
			}
		case VariantFullReboot:
			// The baseline recovery for the same fault: restart the
			// image and reload the AOF.
			if err := s.FullReboot(); err != nil {
				return err
			}
		}
		for !loadDone || !probeDone {
			s.Sleep(10 * time.Millisecond)
		}
		series.Outage = computeOutage(series.Points, series.Injected)
		return fillFig8Recovery(series, rec, inst, start)
	})
	if err != nil {
		return nil, nil, err
	}
	return series, rec, nil
}

// fillFig8Recovery reconstructs the recovery timeline from the trace and
// cross-checks it against the runtime's own records, so the rendered
// figure and the exported trace cannot tell different stories.
func fillFig8Recovery(series *Fig8Series, rec *trace.Recorder, inst *unikernel.Instance, start time.Duration) error {
	events := rec.Snapshot()
	switch series.Variant {
	case VariantVampOS:
		recoveries := trace.Recoveries(events)
		if len(recoveries) == 0 {
			return fmt.Errorf("trace/record divergence: no fault-to-reboot chain in trace")
		}
		rcv := recoveries[0]
		if rcv.Reboot == nil {
			return fmt.Errorf("trace/record divergence: fault chain has no reboot span")
		}
		recs := inst.Runtime().Reboots()
		if len(recs) == 0 {
			return fmt.Errorf("trace/record divergence: trace has a reboot span but the runtime recorded none")
		}
		if got, want := rcv.Reboot.Virtual(), recs[len(recs)-1].VirtualDuration; got != want {
			return fmt.Errorf("trace/record divergence: reboot span %v, reboot record %v", got, want)
		}
		if rcv.Fault-start < series.Injected {
			return fmt.Errorf("trace/record divergence: fault instant %v precedes injection at %v", rcv.Fault-start, series.Injected)
		}
		series.Recovery = &Fig8Recovery{
			Fault:       rcv.Fault - start,
			Crash:       rcv.Crash - start,
			Detected:    rcv.Detected - start,
			RebootStart: rcv.Reboot.Start - start,
			RebootEnd:   rcv.Reboot.End - start,
			Phases:      rcv.Reboot.Phases,
		}
	case VariantFullReboot:
		for _, tl := range trace.RebootTimelines(events, trace.KindReboot) {
			if tl.Component != "image" {
				continue
			}
			series.Recovery = &Fig8Recovery{
				RebootStart: tl.Start - start,
				RebootEnd:   tl.End - start,
			}
			return nil
		}
		return fmt.Errorf("trace/record divergence: no image-restart span in trace")
	}
	return nil
}

// computeOutage estimates the post-injection disruption window: from the
// first disrupted probe (failed, or 5× the pre-fault median latency)
// until the next probe that succeeds at normal latency again. Redial
// time between probes is part of the outage, exactly as a client
// experiences it.
func computeOutage(points []Fig8Point, injected time.Duration) time.Duration {
	var pre []time.Duration
	for _, p := range points {
		if p.OK && p.At < injected {
			pre = append(pre, p.Latency)
		}
	}
	if len(pre) == 0 {
		return 0
	}
	// median by insertion sort (small N)
	for i := 1; i < len(pre); i++ {
		for j := i; j > 0 && pre[j] < pre[j-1]; j-- {
			pre[j], pre[j-1] = pre[j-1], pre[j]
		}
	}
	threshold := 5 * pre[len(pre)/2]
	disrupted := func(p Fig8Point) bool { return !p.OK || p.Latency > threshold }
	var first time.Duration
	found := false
	for _, p := range points {
		if p.At < injected {
			continue
		}
		if disrupted(p) {
			if !found {
				first = p.At
				found = true
			}
			continue
		}
		if found {
			// Recovered: service is answering at normal latency again.
			return p.At - first
		}
	}
	if !found {
		return 0
	}
	// Never recovered within the window.
	last := points[len(points)-1]
	return last.At + last.Latency - first
}

// Render produces the Fig. 8 timeline.
func (r *Fig8Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Fig. 8 — Redis GET latency across failure recovery (%d warm keys) ==\n", r.WarmKeys)
	t := &table{headers: []string{"t (s)", "vampos latency", "fullreboot latency"}}
	get := func(v Table5Variant) *Fig8Series {
		for i := range r.Series {
			if r.Series[i].Variant == v {
				return &r.Series[i]
			}
		}
		return nil
	}
	vo, fr := get(VariantVampOS), get(VariantFullReboot)
	maxN := 0
	if vo != nil && len(vo.Points) > maxN {
		maxN = len(vo.Points)
	}
	if fr != nil && len(fr.Points) > maxN {
		maxN = len(fr.Points)
	}
	cell := func(s *Fig8Series, i int) string {
		if s == nil || i >= len(s.Points) {
			return "-"
		}
		p := s.Points[i]
		if !p.OK {
			return "LOST"
		}
		return fmtDur(p.Latency)
	}
	for i := 0; i < maxN; i++ {
		at := "-"
		if vo != nil && i < len(vo.Points) {
			at = fmt.Sprintf("%.1f", vo.Points[i].At.Seconds())
		} else if fr != nil && i < len(fr.Points) {
			at = fmt.Sprintf("%.1f", fr.Points[i].At.Seconds())
		}
		t.addRow(at, cell(vo, i), cell(fr, i))
	}
	b.WriteString(t.String())
	if vo != nil && fr != nil {
		fmt.Fprintf(&b, "  injection at t=%.1fs; disruption: vampos %s vs fullreboot %s\n",
			vo.Injected.Seconds(), fmtDur(vo.Outage), fmtDur(fr.Outage))
	}
	if vo != nil && vo.Recovery != nil {
		rc := vo.Recovery
		fmt.Fprintf(&b, "  vampos recovery (from trace): crash +%s after fault, detected +%s, reboot %s",
			fmtDur(rc.Crash-rc.Fault), fmtDur(rc.Detected-rc.Fault), fmtDur(rc.RebootEnd-rc.RebootStart))
		var parts []string
		for _, name := range trace.PhaseNames() {
			if d, ok := rc.Phases[name]; ok {
				parts = append(parts, fmt.Sprintf("%s %s", name, fmtDur(d)))
			}
		}
		if len(parts) > 0 {
			fmt.Fprintf(&b, " (%s)", strings.Join(parts, ", "))
		}
		b.WriteByte('\n')
	}
	if fr != nil && fr.Recovery != nil {
		fmt.Fprintf(&b, "  fullreboot recovery (from trace): image restart span %s\n",
			fmtDur(fr.Recovery.RebootEnd-fr.Recovery.RebootStart))
	}
	return b.String()
}
