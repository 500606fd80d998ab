package campaign

import (
	"fmt"
	"strings"
	"time"

	"vampos/internal/aging"
	"vampos/internal/ckpt"
	"vampos/internal/core"
	"vampos/internal/faults"
	"vampos/internal/mem"
	"vampos/internal/trace"
	"vampos/internal/unikernel"
)

// Trial timing. Detection thresholds are tightened well below the
// paper's 1 s default so a hundred-cell campaign stays fast; the bounds
// the oracles assert scale off the same constants. All durations are
// virtual time, so they are deterministic across hosts and -parallel
// settings.
const (
	trialHangThreshold  = 300 * time.Millisecond
	trialWatchdogPeriod = 20 * time.Millisecond
	trialMaxVirtual     = 5 * time.Minute
	trialDeadline       = 60 * time.Second // per-trial workload deadline
	trialSettle         = 2 * time.Second  // recovery settling before verify
	leakBytes           = 128 << 10
	leakBlock           = 4 << 10

	// Aging-trial shape: the gradual leak drips agingLeakStep bytes every
	// agingLeakPause of virtual time (an ~8 MB/s slope, well above the
	// policy threshold below), and the trial waits up to agingWait for the
	// adaptive controller to react before judging.
	agingLeakStep  = 8 << 10
	agingLeakTotal = 128 << 10
	agingLeakPause = time.Millisecond
	agingWait      = 2 * time.Second
)

// DefaultAgingPolicy is the adaptive-rejuvenation policy aging cells
// arm when Options.Aging is unset: leak-slope only, with every other
// sensor disabled so the trial observes a deterministic cause, and a
// threshold far above the target workloads' own allocation churn but
// far below the injected drip.
func DefaultAgingPolicy() aging.Policy {
	return aging.Policy{
		SamplePeriod: 5 * time.Millisecond,
		Window:       4,
		Thresholds: aging.Thresholds{
			LeakSlope:     1 << 20, // bytes per virtual second
			Fragmentation: -1,
			LogBacklog:    -1,
			LatencyDrift:  -1,
			ErrorRate:     -1,
		},
		Cooldown: 50 * time.Millisecond,
	}
}

// trial is the mutable state one cell's execution threads share.
type trial struct {
	cell    Cell
	after   int // seed-derived injection ordinal (fault fires on the after-th invocation)
	profile unikernel.Config
	ckpt    ckpt.Policy // incremental-checkpoint policy applied to the instance

	errs      int // client/syscall errors during the tolerant run phase
	corrupt   int // byte-correctness violations (never tolerated)
	deadlineV time.Duration
	finished  bool
	verifyErr error

	// leak-fault observations
	leakBefore, leakAfter core.HeapStats
	leakRebootErr         error
	leakDone              bool

	// wild-write observations
	wildEFault      bool
	wildIntact      bool
	wildFaultsDelta uint64

	// aging-fault observations
	agingPolicy             aging.Policy // the effective adaptive policy
	agingBefore, agingAfter core.HeapStats
	agingStats              aging.Stats
	agingStatsOK            bool
	agingDone               bool

	// defense-fault observations (tamper, badframe, xdomtouch)
	defInjected    bool   // the attack was actually delivered
	defEFaults     int    // EFAULT replies observed on xdomtouch strikes
	defIntact      bool   // xdomtouch: victim witness unharmed afterwards
	defFaultsDelta uint64 // xdomtouch: protection faults raised by strikes
	defRerandErr   error  // error from the fingerprint-comparison reboot
}

func (t *trial) pastDeadline(s *unikernel.Sys) bool {
	return t.deadlineV > 0 && s.Elapsed() > t.deadlineV
}

// trialSeed hashes the campaign seed and the cell ID into the per-trial
// seed (FNV-1a), so any cell reproduces in isolation from -seed alone.
func trialSeed(campaignSeed int64, id string) uint64 {
	h := uint64(14695981039346656037)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	for _, b := range []byte(id) {
		mix(b)
	}
	s := uint64(campaignSeed)
	for i := 0; i < 8; i++ {
		mix(byte(s >> (8 * i)))
	}
	return h
}

// runTrial executes one cell on a fresh, fully isolated instance and
// judges it. Safe to call from any goroutine: instances share no state.
func runTrial(cell Cell, opts Options) (res CellResult) {
	if cell.Workload == ClusterWorkload {
		return runClusterTrial(cell, opts)
	}
	if cell.Fault == FaultSessionCrash {
		return runSessionTrial(cell, opts)
	}
	if cell.Fault.defenseFault() {
		return runDefenseTrial(cell, opts)
	}
	res = CellResult{Cell: cell, TrialID: cell.ID()}
	defer func() {
		if r := recover(); r != nil {
			res.Verdict = VerdictFail
			res.Detail = fmt.Sprintf("trial panicked: %v", r)
			if cell.Expected {
				res.Verdict = VerdictExpected
			}
		}
	}()
	seed := trialSeed(opts.Seed, cell.ID())
	t := &trial{cell: cell, after: 1 + int(seed%3), ckpt: opts.Ckpt}
	res.After = t.after

	cc, err := coreConfigFor(cell.Config)
	if err != nil {
		return failResult(res, err)
	}
	cc.HangThreshold = trialHangThreshold
	cc.Shards = opts.Shards
	cc.WatchdogPeriod = trialWatchdogPeriod
	cc.MaxVirtualTime = trialMaxVirtual
	cc.Ckpt = opts.Ckpt
	cc.ReplayRetCheck = opts.ReplayRetCheck
	if cell.Fault == FaultAging {
		// Boot starts the adaptive controller; the trial only arms the
		// leak and observes — any reboot must come from the sensors.
		t.agingPolicy = DefaultAgingPolicy()
		if opts.Aging.Enabled() {
			t.agingPolicy = opts.Aging
		}
		cc.Aging = t.agingPolicy
		cc.AgingTargets = []string{cell.Component}
	}
	d, err := driverFor(cell.Workload)
	if err != nil {
		return failResult(res, err)
	}
	t.profile = d.profile(unikernel.Config{Core: cc})
	inst, err := unikernel.New(t.profile)
	if err != nil {
		return failResult(res, err)
	}
	defer inst.Close()
	if cell.Fault == FaultWildWrite {
		if err := inst.Runtime().Register(faults.NewSaboteur()); err != nil {
			return failResult(res, err)
		}
	}
	if err := d.setupHost(inst); err != nil {
		return failResult(res, err)
	}
	rec := inst.NewTracer("campaign/"+cell.ID(), trace.WithCapacity(1<<14))

	var phaseErr error
	v0 := time.Duration(0)
	runErr := inst.Run(func(s *unikernel.Sys) {
		defer s.Stop()
		v0 = s.Elapsed()
		t.deadlineV = s.Elapsed() + trialDeadline
		if phaseErr = s.StartApp(d.app()); phaseErr != nil {
			phaseErr = fmt.Errorf("app start: %w", phaseErr)
			return
		}
		if phaseErr = d.warm(s, t); phaseErr != nil {
			phaseErr = fmt.Errorf("warm phase: %w", phaseErr)
			return
		}
		if phaseErr = t.inject(s, inst); phaseErr != nil {
			phaseErr = fmt.Errorf("injection: %w", phaseErr)
			return
		}
		d.run(s, t)
		s.Sleep(trialSettle)
		t.verifyErr = d.verify(s, t)
		t.finished = true
	})
	res.Virtual = inst.Runtime().Clock().Elapsed() - v0
	if runErr != nil && phaseErr == nil {
		phaseErr = runErr
	}
	events := rec.Snapshot()
	res.Reboots = len(inst.Runtime().Reboots())
	res.ClientErrs = t.errs
	res.Verdict, res.Oracles, res.Detail = judge(t, inst, events, phaseErr)
	res.recorder = rec
	return res
}

// inject applies the cell's fault. Armed kinds (crash, hang, errno) are
// deferred to the after-th invocation of the fault site; leak and
// wild-write execute immediately from the controller.
func (t *trial) inject(s *unikernel.Sys, inst *unikernel.Instance) error {
	rt := inst.Runtime()
	cell := t.cell
	fn := cell.Function
	if fn == "" || fn == core.AnyFunction {
		fn = core.AnyFunction
	}
	switch cell.Fault {
	case FaultCrash:
		return rt.ArmFaultSpec(cell.Component, fn, core.FaultSpec{Kind: core.FaultCrash, After: t.after})
	case FaultHang:
		return rt.ArmFaultSpec(cell.Component, fn, core.FaultSpec{Kind: core.FaultHang, After: t.after})
	case FaultErrno:
		return rt.ArmFaultSpec(cell.Component, fn, core.FaultSpec{Kind: core.FaultErrno, After: t.after, Errno: core.EIO})
	case FaultLeak:
		inj := faults.NewInjector(rt)
		before, err := inj.HeapStats(cell.Component)
		if err != nil {
			return err
		}
		if _, err := inj.LeakBytes(cell.Component, leakBytes, leakBlock); err != nil {
			return err
		}
		t.leakBefore, _ = inj.HeapStats(cell.Component)
		if t.leakBefore.AllocatedBytes <= before.AllocatedBytes {
			return fmt.Errorf("leak did not grow %s's heap", cell.Component)
		}
		// Rejuvenate: the proactive component reboot that clears aging
		// (§VII-D). VIRTIO refuses it — the expected-unrecoverable path.
		t.leakRebootErr = s.Reboot(cell.Component)
		t.leakAfter, _ = inj.HeapStats(cell.Component)
		t.leakDone = true
		return nil
	case FaultAging:
		inj := faults.NewInjector(rt)
		before, err := inj.HeapStats(cell.Component)
		if err != nil {
			return err
		}
		// Drip the leak so the controller's sample window observes a
		// slope, rather than a step it could only see once. The
		// controller may fire mid-drip (the whole point), so the "before"
		// observation is the peak allocation seen during the drip, not
		// the end state.
		t.agingBefore = before
		for leaked := int64(0); leaked < agingLeakTotal; leaked += agingLeakStep {
			if _, err := inj.LeakBytes(cell.Component, agingLeakStep, agingLeakStep); err != nil {
				return err
			}
			if hs, err := inj.HeapStats(cell.Component); err == nil &&
				hs.AllocatedBytes > t.agingBefore.AllocatedBytes {
				t.agingBefore = hs
			}
			s.Sleep(agingLeakPause)
		}
		if t.agingBefore.AllocatedBytes <= before.AllocatedBytes {
			return fmt.Errorf("aging leak did not grow %s's heap", cell.Component)
		}
		// Wait (bounded, virtual time) for the sensor-driven controller
		// to act: a successful rejuvenation, or — for unrebootable
		// targets — a refused one that armed backoff.
		deadline := s.Elapsed() + agingWait
		for s.Elapsed() < deadline {
			st, ok := rt.AgingStats(cell.Component)
			if ok && (st.Rejuvenations > 0 || st.Failures > 0) {
				break
			}
			s.Sleep(t.agingPolicy.WithDefaults().SamplePeriod)
		}
		t.agingStats, t.agingStatsOK = rt.AgingStats(cell.Component)
		t.agingAfter, _ = inj.HeapStats(cell.Component)
		t.agingDone = true
		return nil
	case FaultWildWrite:
		heap, ok := rt.ComponentHeap(cell.Component)
		if !ok {
			return fmt.Errorf("no heap for victim %q", cell.Component)
		}
		victimAddr, err := heap.Alloc(64)
		if err != nil {
			return err
		}
		memObj := rt.Memory()
		witness := []byte("precious")
		if err := memObj.HostWrite(mem.Addr(victimAddr), witness); err != nil {
			return err
		}
		faults0 := memObj.Faults()
		_, werr := s.Ctx().Call("saboteur", "wild_write", victimAddr, 0xFF)
		t.wildEFault = werr != nil && strings.Contains(werr.Error(), "EFAULT")
		got := make([]byte, len(witness))
		if err := memObj.HostRead(mem.Addr(victimAddr), got); err != nil {
			return err
		}
		t.wildIntact = string(got) == string(witness)
		t.wildFaultsDelta = memObj.Faults() - faults0
		return nil
	default:
		return fmt.Errorf("campaign: unknown fault %q", cell.Fault)
	}
}

func failResult(res CellResult, err error) CellResult {
	res.Verdict = VerdictFail
	if res.Expected {
		res.Verdict = VerdictExpected
	}
	res.Detail = err.Error()
	return res
}
