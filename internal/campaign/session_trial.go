package campaign

import (
	"fmt"
	"strings"
	"time"

	"vampos/internal/apps/redis"
	"vampos/internal/bench"
	"vampos/internal/core"
	"vampos/internal/sched"
	"vampos/internal/trace"
	"vampos/internal/unikernel"
)

// Session trial shape: several persistent client connections so that the
// injected crash strikes one connection's session while the others keep
// serving — the experiment behind the untouched-sessions oracle.
const (
	sessionClients = 3
	sessionWarmOps = 5  // SETs per client before the fault is armed
	sessionRunOps  = 10 // SETs per client while the fault fires

	// sessionLatencySlack bounds what an untouched session may lose on
	// top of its warm-phase worst case and the recovery itself: one
	// dispatch through the recovering group's mailbox, with margin.
	sessionLatencySlack = 10 * time.Millisecond
)

// sessClient is one persistent redis connection and its observations.
type sessClient struct {
	cl      *bench.RedisClient
	keys    []kvPair
	errs    int
	warmMax time.Duration // worst SET latency before the fault was armed
	runMax  time.Duration // worst SET latency while recovery could happen
}

// runSessionTrial executes one sessioncrash cell: boot redis under the
// Microreboot configuration, open several persistent client connections,
// crash the armed per-session fault site mid-workload, and judge that
// recovery stayed at the session rung (or escalated honestly), that
// every untouched session observed zero errors and no latency spike
// beyond one dispatch, and that the trace tells the same story.
func runSessionTrial(cell Cell, opts Options) (res CellResult) {
	res = CellResult{Cell: cell, TrialID: cell.ID()}
	defer func() {
		if r := recover(); r != nil {
			res.Verdict = VerdictFail
			res.Detail = fmt.Sprintf("trial panicked: %v", r)
		}
	}()
	seed := trialSeed(opts.Seed, cell.ID())
	after := 1 + int(seed%3)
	res.After = after

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
	cc.Microreboot = true // the configuration under test: rung 1 enabled

	kv := redis.New()
	profile := kv.Profile(unikernel.Config{Core: cc})
	inst, err := unikernel.New(profile)
	if err != nil {
		return failResult(res, err)
	}
	defer inst.Close()
	rec := inst.NewTracer("campaign/"+cell.ID(), trace.WithCapacity(1<<14))

	clients := make([]*sessClient, sessionClients)
	for i := range clients {
		clients[i] = &sessClient{}
	}
	var (
		phaseErr  error
		verifyErr error
		v0        time.Duration
		deadlineV time.Duration
	)
	runErr := inst.Run(func(s *unikernel.Sys) {
		defer s.Stop()
		v0 = s.Elapsed()
		deadlineV = v0 + trialDeadline
		if phaseErr = s.StartApp(kv); phaseErr != nil {
			phaseErr = fmt.Errorf("app start: %w", phaseErr)
			return
		}
		// All clients live on one host thread: bench clients are bound to
		// the thread that dialled them, and one thread keeps the trial as
		// deterministic as a single-client one. The controller advances
		// the phase variable; the client thread acknowledges.
		phase, ack := 0, 0
		var clientErr error
		s.GoHost("campaign/sessions", func(th *sched.Thread) {
			defer func() { ack = 3 }()
			for i, c := range clients {
				peer := s.NewPeer()
				cl, err := bench.DialRedis(s, th, peer, redis.DefaultPort, 2*time.Second)
				if err != nil {
					clientErr = fmt.Errorf("dial client %d: %w", i, err)
					return
				}
				c.cl = cl
				defer cl.Close()
			}
			set := func(c *sessClient, ci, i int, max *time.Duration) {
				k, v := fmt.Sprintf("s%d-%03d", ci, i), fmt.Sprintf("w%d-%03d", ci, i)
				start := s.Elapsed()
				err := c.cl.Set(k, v, 2*time.Second)
				if lat := s.Elapsed() - start; lat > *max {
					*max = lat
				}
				if err != nil {
					c.errs++
					return
				}
				c.keys = append(c.keys, kvPair{k, v})
			}
			// Warm: establish every session and its baseline latency.
			for i := 0; i < sessionWarmOps; i++ {
				for ci, c := range clients {
					set(c, ci, i, &c.warmMax)
				}
			}
			ack = 1
			for phase < 2 && s.Elapsed() < deadlineV {
				th.Sleep(time.Millisecond)
			}
			// Run: round-robin SETs while the armed fault fires and rung-1
			// recovery happens underneath.
			for i := sessionWarmOps; i < sessionWarmOps+sessionRunOps; i++ {
				for ci, c := range clients {
					set(c, ci, i, &c.runMax)
				}
			}
			ack = 2
			for phase < 3 && s.Elapsed() < deadlineV {
				th.Sleep(time.Millisecond)
			}
			// Verify on the surviving sessions: every acknowledged SET is
			// readable through the same connection that wrote it.
			for ci, c := range clients {
				for _, p := range c.keys {
					val, found, err := c.cl.Get(p.k, 2*time.Second)
					if err != nil || !found || val != p.v {
						verifyErr = fmt.Errorf("client %d key %s: got (%q, %v, %v), want %q",
							ci, p.k, val, found, err, p.v)
						return
					}
				}
			}
		})
		wait := func(want int) bool {
			for ack < want && s.Elapsed() < deadlineV {
				s.Sleep(time.Millisecond)
			}
			return ack >= want
		}
		if !wait(1) || clientErr != nil {
			phaseErr = fmt.Errorf("warm phase: err=%v ack=%d", clientErr, ack)
			return
		}
		if err := inst.Runtime().ArmFaultSpec(cell.Component, cell.Function,
			core.FaultSpec{Kind: core.FaultCrash, After: after}); err != nil {
			phaseErr = fmt.Errorf("injection: %w", err)
			return
		}
		phase = 2
		if !wait(2) {
			phaseErr = fmt.Errorf("run phase did not finish before the deadline")
			return
		}
		s.Sleep(trialSettle)
		phase = 3
		if !wait(3) {
			phaseErr = fmt.Errorf("verify phase did not finish before the deadline")
		}
	})
	res.Virtual = inst.Runtime().Clock().Elapsed() - v0
	if runErr != nil && phaseErr == nil {
		phaseErr = runErr
	}
	events := rec.Snapshot()
	res.Verdict, res.Oracles, res.Detail = judgeSession(cell, inst, clients, events, phaseErr, verifyErr)
	rt := inst.Runtime()
	res.Reboots = len(rt.Reboots()) + len(rt.Microreboots())
	for _, c := range clients {
		res.ClientErrs += c.errs
	}
	res.recorder = rec
	return res
}

// judgeSession runs the session-recovery oracles. Oracles that depend on
// the fault having fired are vacuously true when it never did, so a cold
// fault site folds to VerdictNotTriggered instead of a regression.
func judgeSession(cell Cell, inst *unikernel.Instance, clients []*sessClient,
	events []trace.Event, phaseErr, verifyErr error) (Verdict, []OracleResult, string) {
	rt := inst.Runtime()
	st := rt.Stats()
	reboots := rt.Reboots()
	micros := rt.Microreboots()
	pending := rt.PendingFaults()
	targetGroup, _ := rt.GroupOf(cell.Component)

	var oracles []OracleResult
	oc := func(name string, ok bool, format string, args ...any) {
		r := OracleResult{Name: name, OK: ok}
		if !ok {
			r.Detail = fmt.Sprintf(format, args...)
		}
		oracles = append(oracles, r)
	}

	triggered := len(pending) == 0 && countKind(events, trace.KindFault) >= 1
	oc("fault-triggered", triggered,
		"fault never fired: pending=%v, fault events=%d", pending, countKind(events, trace.KindFault))

	// The ladder must have engaged at the session rung: the crash struck a
	// session-attributable site, so rung 1 is attempted — it either
	// completes (a MicrorebootRecord, no component reboot) or honestly
	// escalates to exactly one component reboot of the target group.
	attempted := st.Microreboots + st.MicroEscalates
	if triggered {
		oc("session-recovery", attempted >= 1 && st.FailedRestores == 0,
			"rung 1 never attempted or restore failed: microreboots=%d escalations=%d failedRestores=%d",
			st.Microreboots, st.MicroEscalates, st.FailedRestores)
		stray := strayReboots(reboots, targetGroup)
		switch {
		case st.Microreboots >= 1:
			oc("containment", len(micros) == 1 && len(reboots) == 0 && st.MicroEscalates == 0,
				"rung 1 succeeded but recovery leaked: microreboots=%d reboots=%d escalations=%d",
				len(micros), len(reboots), st.MicroEscalates)
		case st.MicroEscalates >= 1:
			oc("containment", len(reboots) == 1 && len(stray) == 0,
				"escalation leaked past the target group: reboots=%d stray=%v", len(reboots), stray)
		}
	}

	// Untouched sessions observe zero errors. The recovery machinery
	// retries the faulted call transparently too, so the budget is zero
	// for every client, victim included.
	totalErrs := 0
	for _, c := range clients {
		totalErrs += c.errs
	}
	oc("untouched-sessions", totalErrs == 0,
		"%d client errors across %d sessions (want 0 everywhere)", totalErrs, len(clients))

	// No latency spike beyond one dispatch: an op issued while the group
	// recovers waits out the recovery plus its own dispatch, nothing more.
	if triggered {
		var recoveryV time.Duration
		for _, m := range micros {
			recoveryV += m.VirtualDuration
		}
		for _, r := range reboots {
			recoveryV += r.VirtualDuration
		}
		latOK := true
		detail := ""
		for ci, c := range clients {
			if bound := c.warmMax + recoveryV + sessionLatencySlack; c.runMax > bound {
				latOK = false
				detail = fmt.Sprintf("client %d: worst run SET %v exceeds bound %v (warm %v + recovery %v + slack)",
					ci, c.runMax, bound, c.warmMax, recoveryV)
				break
			}
		}
		oc("latency-bound", latOK, "%s", detail)
	}

	// The trace tells the same story as the runtime records: one
	// KindMicroreboot span per attempt, escalations parented to it.
	spans := trace.Microreboots(events)
	traceOK := trace.Validate(events) == nil && uint64(len(spans)) == attempted
	if traceOK && st.Microreboots >= 1 {
		traceOK = len(spans) == 1 && !spans[0].Escalated && len(spans[0].Phases) >= 3
	}
	if traceOK && st.MicroEscalates >= 1 {
		traceOK = len(spans) == 1 && spans[0].Escalated
	}
	oc("trace-complete", traceOK, "validate=%v spans=%d attempted=%d (%+v)",
		trace.Validate(events), len(spans), attempted, spans)

	invOK := phaseErr == nil && verifyErr == nil
	oc("invariants", invOK, "phaseErr=%v verify=%v", phaseErr, verifyErr)

	allOK := true
	var failed []string
	for _, o := range oracles {
		if !o.OK {
			allOK = false
			failed = append(failed, o.Name)
		}
	}
	detail := ""
	if phaseErr != nil {
		detail = phaseErr.Error()
	}
	switch {
	case allOK:
		return VerdictPass, oracles, detail
	case !triggered && onlySessionTriggerFailed(oracles):
		return VerdictNotTriggered, oracles, "fault site not reached by this workload"
	default:
		if detail == "" {
			detail = "oracle failures: " + strings.Join(failed, ", ")
		}
		return VerdictFail, oracles, detail
	}
}

// onlySessionTriggerFailed mirrors onlyTriggerFailed for the session
// oracle set: an unreached fault site vacuously fails only the trigger
// oracle — service or invariant violations still fail the trial.
func onlySessionTriggerFailed(oracles []OracleResult) bool {
	for _, o := range oracles {
		if !o.OK && o.Name != "fault-triggered" {
			return false
		}
	}
	return true
}
