package campaign

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"vampos/internal/aging"
	"vampos/internal/core"
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
)

// trialAgingPolicy is the adaptive-rejuvenation policy aging cells arm:
// leak-slope only, with every other sensor disabled so the trial
// observes a deterministic cause, and a threshold far above the target
// workloads' own allocation churn but far below the injected drip.
func trialAgingPolicy() aging.Policy {
	return aging.Policy{
		SamplePeriod: 5 * time.Millisecond,
		LeakSlope:    1 << 20, // bytes per virtual second
		Cooldown:     50 * time.Millisecond,
	}
}

// trial is the state one cell's execution shares across its phases and
// oracles. What one fault kind alone observes lives on that kind.
type trial struct {
	cell    Cell
	seed    uint64
	after   int                 // seed-derived injection ordinal (fault fires on the after-th invocation)
	inst    *unikernel.Instance // nil in a cluster trial
	profile unikernel.Config

	errs      int // client/syscall errors during the tolerant run phase
	corrupt   int // byte-correctness violations (never tolerated)
	deadlineV time.Duration
	finished  bool
	verifyErr error
}

func (t *trial) pastDeadline(s *unikernel.Sys) bool {
	return t.deadlineV > 0 && s.Elapsed() > t.deadlineV
}

// trialSeed hashes the campaign seed and the cell ID into the per-trial
// seed (FNV-1a), so any cell reproduces in isolation from -seed alone.
func trialSeed(campaignSeed int64, id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], uint64(campaignSeed))
	h.Write(seed[:])
	return h.Sum64()
}

// runTrial executes one cell on a fresh, fully isolated instance (or
// cluster) and judges it. Safe to call from any goroutine: trials share
// no state. Every fault kind runs through the same steps: the core
// configuration, the kind's delta to it, the boot, the phases, and one
// fold of the oracles into a verdict.
func runTrial(cell Cell, opts Options) (res CellResult) {
	res = CellResult{Cell: cell, TrialID: cell.ID()}
	defer func() {
		if r := recover(); r != nil {
			res = failResult(res, fmt.Errorf("trial panicked: %v", r))
		}
	}()
	seed := trialSeed(opts.Seed, cell.ID())
	t := &trial{cell: cell, seed: seed, after: 1 + int(seed%3)}
	cc, err := coreConfigFor(cell.Config)
	if err != nil {
		return failResult(res, err)
	}
	cc.HangThreshold = trialHangThreshold
	cc.Shards = opts.Shards
	cc.WatchdogPeriod = trialWatchdogPeriod
	cc.MaxVirtualTime = trialMaxVirtual
	cc.Ckpt = opts.Ckpt

	j := &judgement{t: t}
	if cell.Workload == ClusterWorkload {
		res.After = t.after
		err = t.runCluster(cc, &res, j)
	} else {
		var k faultKind
		if k, err = kindFor(cell); err != nil {
			return failResult(res, err)
		}
		k.configure(t, &cc, opts)
		res.After = t.after
		err = t.runInstance(cc, k, &res, j)
	}
	if err != nil {
		return failResult(res, err)
	}
	res.Oracles = j.oracles
	res.Verdict, res.Detail = j.verdict()
	return res
}

// runInstance runs a single-instance kind: it boots the instance, drives
// it through warm → arm → run → the kind's post-run step → settle →
// verify, and hands what it observed to the kind's oracles. A phase that
// fails ends the run, and the oracles see its error; an error returned
// here means the trial never ran.
func (t *trial) runInstance(cc core.Config, k faultKind, res *CellResult, j *judgement) error {
	d, ok := k.(driver) // a kind may bring its own workload
	if !ok {
		var err error
		if d, err = driverFor(t.cell.Workload); err != nil {
			return err
		}
	}
	t.profile = d.profile(unikernel.Config{Core: cc})
	inst, err := unikernel.New(t.profile)
	if err != nil {
		return err
	}
	defer inst.Close()
	t.inst = inst
	if err := k.register(t); err != nil {
		return err
	}
	if err := d.setupHost(inst); err != nil {
		return err
	}
	rec := inst.NewTracer("campaign/"+t.cell.ID(), trace.WithCapacity(1<<14))
	res.recorder = rec

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
		if phaseErr = k.arm(t, s); phaseErr != nil {
			phaseErr = fmt.Errorf("%s: %w", k.armPhase(), phaseErr)
			return
		}
		if phaseErr = d.run(s, t); phaseErr != nil {
			return
		}
		k.afterRun(t, s)
		s.Sleep(trialSettle)
		t.verifyErr = d.verify(s, t)
		t.finished = true
	})
	rt := inst.Runtime()
	res.Virtual = rt.Clock().Elapsed() - v0
	if runErr != nil && phaseErr == nil {
		phaseErr = runErr
	}
	res.Reboots = len(rt.Reboots()) + len(rt.Microreboots())
	res.ClientErrs = t.errs
	j.rt, j.st, j.reboots, j.events, j.phaseErr = rt, rt.Stats(), rt.Reboots(), rec.Snapshot(), phaseErr
	cs, _ := rt.ComponentStats(t.cell.Component)
	j.target = cs.Group
	k.judge(j)
	return nil
}

// faultKind is one single-instance fault kind: its delta to the core
// configuration, how it strikes, what it does once the workload's run
// phase returns, and its oracles. kindFor makes a fresh value per trial,
// so a kind keeps its own observations; runInstance owns the boot, the
// phases and the fold.
type faultKind interface {
	configure(t *trial, cc *core.Config, opts Options)
	register(t *trial) error // links extra components into the booted instance
	armPhase() string        // names the arm phase in a failure
	arm(t *trial, s *unikernel.Sys) error
	afterRun(t *trial, s *unikernel.Sys)
	judge(j *judgement)
}

// baseKind is the no-op every kind embeds for the steps it does not take.
type baseKind struct{}

func (baseKind) configure(*trial, *core.Config, Options) {}
func (baseKind) register(*trial) error                   { return nil }
func (baseKind) armPhase() string                        { return "injection" }
func (baseKind) afterRun(*trial, *unikernel.Sys)         {}

// kindFor is the campaign's fault dimension for single-instance
// workloads, one row per kind (DESIGN.md §8 tabulates them).
func kindFor(cell Cell) (faultKind, error) {
	switch cell.Fault {
	case FaultCrash:
		return &armedFault{spec: core.FaultSpec{Kind: core.FaultCrash}}, nil
	case FaultHang:
		return &armedFault{spec: core.FaultSpec{Kind: core.FaultHang}}, nil
	case FaultErrno:
		return &armedFault{spec: core.FaultSpec{Kind: core.FaultErrno, Errno: core.EIO}}, nil
	case FaultLeak:
		return &leakFault{}, nil
	case FaultAging:
		return &agingFault{}, nil
	case FaultWildWrite:
		return &wildWrite{}, nil
	case FaultSessionCrash:
		return newSessionFault(), nil
	case FaultTamper, FaultBadFrame, FaultXDomTouch:
		return &attack{}, nil
	}
	return nil, fmt.Errorf("campaign: unknown fault %q for workload %q", cell.Fault, cell.Workload)
}

// armSite arms spec at the cell's fault site, to fire on its after-th
// invocation.
func armSite(t *trial, spec core.FaultSpec) error {
	spec.After = t.after
	return t.inst.Runtime().ArmFaultSpec(t.cell.Component, t.cell.Function, spec)
}

func failResult(res CellResult, err error) CellResult {
	res.Verdict = VerdictFail
	if res.Expected {
		res.Verdict = VerdictExpected
	}
	res.Detail = err.Error()
	return res
}
