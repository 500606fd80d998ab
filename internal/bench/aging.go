package bench

import (
	"fmt"
	"time"

	"vampos/internal/aging"
	"vampos/internal/apps/echo"
	"vampos/internal/core"
	"vampos/internal/faults"
	"vampos/internal/sched"
	"vampos/internal/unikernel"
)

// AgingArm identifies one rejuvenation strategy of the aging figure.
type AgingArm string

// The three arms of the aging figure.
const (
	// AgingNone never rejuvenates: the leak accumulates monotonically.
	AgingNone AgingArm = "none"
	// AgingPeriodic is the blind administrator: a fixed-interval loop
	// that reboots the target on a virtual-time schedule, aged or not.
	AgingPeriodic AgingArm = "periodic"
	// AgingAdaptive is the runtime's sensor-driven controller: it
	// rejuvenates only when the component's observed aging crosses the
	// policy thresholds.
	AgingAdaptive AgingArm = "adaptive"
)

// AgingSamplePoint is one point of an arm's heap trajectory.
type AgingSamplePoint struct {
	At        time.Duration
	Allocated int64
	Frag      float64
}

// AgingRow is one arm's outcome: service quality, rejuvenation count,
// and the allocator trajectory of the aged component.
type AgingRow struct {
	Arm     AgingArm
	Success int
	Fails   int
	// Reboots counts reboots of the leaky target; Rejuvenations counts
	// the sensor-triggered subset (reboot reason "rejuvenation").
	Reboots       int
	Rejuvenations int
	Cause         string // adaptive arm: the aging monitor's last cause
	HeapStart     int64
	HeapPeak      int64
	HeapEnd       int64
	FragEnd       float64
	LeakedBytes   int64 // total bytes the fault injector dripped
	Trajectory    []AgingSamplePoint
	Virtual       time.Duration
}

// AgingResult is the aging figure: a leaky LWIP under echo load, with no
// rejuvenation, fixed-interval rejuvenation, and sensor-driven adaptive
// rejuvenation.
type AgingResult struct {
	PeriodicEvery time.Duration
	Policy        aging.Policy
	Rows          []AgingRow
}

// agingBenchPolicy is the adaptive arm's sensor policy: leak slope only,
// with a threshold far above the echo workload's own allocation churn
// and far below the injected drip rate, so firings are unambiguous.
func agingBenchPolicy() aging.Policy {
	return aging.Policy{
		SamplePeriod: 10 * time.Millisecond,
		LeakSlope:    256 << 10,
		Cooldown:     200 * time.Millisecond,
	}
}

// RunAging measures the three rejuvenation strategies against the same
// aging scenario: echo clients bounce messages off the guest while a
// fault injector drips an allocator leak into LWIP during the middle
// half of the run. The figure's claim: the adaptive arm bounds the leak
// and fragmentation with a handful of sensor-triggered reboots and zero
// lost requests; the periodic arm pays blind reboots before and after
// the aging window; the no-rejuvenation arm ages monotonically.
func RunAging(scale Scale) (*AgingResult, error) {
	res := &AgingResult{PeriodicEvery: scale.AgingPeriodicEvery, Policy: agingBenchPolicy().WithDefaults()}
	for _, arm := range []AgingArm{AgingNone, AgingPeriodic, AgingAdaptive} {
		row, err := runAgingArm(arm, scale)
		if err != nil {
			return nil, fmt.Errorf("aging %s: %w", arm, err)
		}
		res.Rows = append(res.Rows, *row)
	}
	return res, nil
}

func runAgingArm(arm AgingArm, scale Scale) (*AgingRow, error) {
	const target = "lwip"
	cc := coreConfig(DaS)
	if arm == AgingAdaptive {
		cc.Aging = agingBenchPolicy()
		cc.AgingTargets = []string{target}
	}
	row := &AgingRow{Arm: arm}
	err := runInstance(fullProfile(cc), nil, func(s *unikernel.Sys, inst *unikernel.Instance) error {
		if err := s.StartApp(echo.New()); err != nil {
			return err
		}
		start := s.Elapsed()
		duration := scale.AgingDuration
		payload := []byte("0123456789abcdef0123456789abcdef") // 32 B
		done := false
		doneClients := 0
		for c := 0; c < scale.AgingClients; c++ {
			peer := s.NewPeer()
			s.GoHost(fmt.Sprintf("echo%d", c), func(th *sched.Thread) {
				defer func() { doneClients++ }()
				cl, err := DialEcho(s, th, peer, echo.DefaultPort, 2*time.Second)
				if err != nil {
					row.Fails++
					return
				}
				defer cl.Close()
				for !done {
					// Component reboots pause the mailbox; a round trip is
					// delayed, never dropped — so the timeout just needs to
					// exceed the longest reboot.
					if err := cl.RoundTrip(payload, 2*time.Second); err != nil {
						row.Fails++
					} else {
						row.Success++
					}
					th.Sleep(20 * time.Millisecond)
				}
			})
		}
		if arm == AgingPeriodic {
			// The blind administrator: reboot the target every period,
			// aged or not, until the arm ends.
			stop := false
			defer func() { stop = true }()
			s.Ctx().Go("rejuvenator", func(c *core.Ctx) {
				for !stop {
					c.Sleep(scale.AgingPeriodicEvery)
					if stop {
						return
					}
					_ = c.Reboot(target)
				}
			})
		}
		// Controller loop: sample the target's allocator every tick, and
		// drip the leak during the middle half of the run.
		inj := faults.NewInjector(inst.Runtime())
		const tick = 5 * time.Millisecond
		const leakStep = 4 << 10 // bytes dripped into the target per tick
		nextSample := time.Duration(0)
		for {
			now := s.Elapsed() - start
			if now >= duration {
				break
			}
			if now >= duration/4 && now < 3*duration/4 {
				if _, err := inj.LeakBytes(target, leakStep, leakStep); err != nil {
					return fmt.Errorf("leak drip: %w", err)
				}
				row.LeakedBytes += leakStep
			}
			if now >= nextSample {
				cs, _ := inst.Runtime().ComponentStats(target)
				row.Trajectory = append(row.Trajectory, AgingSamplePoint{
					At: now, Allocated: cs.Heap.AllocatedBytes, Frag: cs.Heap.ExternalFragmentation(),
				})
				nextSample = now + 50*time.Millisecond
			}
			s.Sleep(tick)
		}
		done = true
		// Let in-flight round trips finish so the fail counter is exact.
		for doneClients < scale.AgingClients {
			s.Sleep(10 * time.Millisecond)
		}
		cs, _ := inst.Runtime().ComponentStats(target)
		row.FragEnd = cs.Heap.ExternalFragmentation()
		row.Trajectory = append(row.Trajectory, AgingSamplePoint{
			At: s.Elapsed() - start, Allocated: cs.Heap.AllocatedBytes, Frag: row.FragEnd,
		})
		row.Virtual = s.Elapsed() - start
		if cs.Aging != nil {
			row.Cause = cs.Aging.LastCause
		}
		for _, rec := range inst.Runtime().Reboots() {
			if rec.Group != target {
				continue
			}
			row.Reboots++
			if rec.Reason == "rejuvenation" {
				row.Rejuvenations++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(row.Trajectory) == 0 {
		return nil, fmt.Errorf("no samples recorded")
	}
	row.HeapStart = row.Trajectory[0].Allocated
	row.HeapEnd = row.Trajectory[len(row.Trajectory)-1].Allocated
	for _, p := range row.Trajectory {
		if p.Allocated > row.HeapPeak {
			row.HeapPeak = p.Allocated
		}
	}
	return row, nil
}

// Render produces the aging figure as a table.
func (r *AgingResult) Render() string {
	t := &table{
		title: fmt.Sprintf("Aging figure — leaky LWIP under echo load (periodic every %v, adaptive leak-slope %.0f B/s)",
			r.PeriodicEvery, r.Policy.LeakSlope),
		headers: []string{"arm", "ok", "fails", "reboots", "rejuv", "cause", "heap start", "heap peak", "heap end", "frag end", "leaked"},
	}
	for _, row := range r.Rows {
		t.addRow(
			string(row.Arm),
			fmt.Sprintf("%d", row.Success),
			fmt.Sprintf("%d", row.Fails),
			fmt.Sprintf("%d", row.Reboots),
			fmt.Sprintf("%d", row.Rejuvenations),
			row.Cause,
			fmtBytes(row.HeapStart),
			fmtBytes(row.HeapPeak),
			fmtBytes(row.HeapEnd),
			fmt.Sprintf("%.2f", row.FragEnd),
			fmtBytes(row.LeakedBytes),
		)
	}
	t.addNote("none: the drip accumulates monotonically — only a reboot reclaims it (the paper's aging motivation, §IV)")
	t.addNote("periodic: the blind fixed-interval administrator reboots on schedule, aged or not, before and after the aging window")
	t.addNote("adaptive: the sensor-driven controller rejuvenates only while the leak slope is observed, with zero lost requests")
	return t.String()
}
