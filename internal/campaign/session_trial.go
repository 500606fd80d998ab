package campaign

import (
	"errors"
	"fmt"
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
	warmMax time.Duration // worst SET latency before the fault was armed
	runMax  time.Duration // worst SET latency while recovery could happen
}

// sessionFault is the sessioncrash kind: a crash armed on a
// session-attributable fault site of redis under the Microreboot
// configuration. It brings its own driver, several persistent client
// connections, and its oracles judge that recovery stayed at the session
// rung (or escalated honestly), that every untouched session observed
// zero errors and no latency spike beyond one dispatch, and that the
// trace tells the same story.
//
// All clients live on one host thread: bench clients are bound to the
// thread that dialled them, and one thread keeps the trial as
// deterministic as a single-client one. The driver's phases advance
// phase; the client thread acknowledges each in ack.
type sessionFault struct {
	baseKind
	kv                 *redis.App
	clients            []*sessClient
	phase, ack         int
	dialErr, verifyErr error
}

func newSessionFault() faultKind {
	k := &sessionFault{kv: redis.New(), clients: make([]*sessClient, sessionClients)}
	for i := range k.clients {
		k.clients[i] = &sessClient{}
	}
	return k
}

func (k *sessionFault) configure(_ *trial, cc *core.Config, _ Options) {
	cc.Microreboot = true // the configuration under test: rung 1 enabled
}

func (k *sessionFault) arm(t *trial, _ *unikernel.Sys) error {
	return armSite(t, core.FaultSpec{Kind: core.FaultCrash})
}

func (k *sessionFault) app() unikernel.App                            { return k.kv }
func (k *sessionFault) profile(cfg unikernel.Config) unikernel.Config { return k.kv.Profile(cfg) }
func (k *sessionFault) setupHost(*unikernel.Instance) error           { return nil }

// warm dials every client and establishes its session and baseline
// latency.
func (k *sessionFault) warm(s *unikernel.Sys, t *trial) error {
	s.GoHost("campaign/sessions", func(th *sched.Thread) { k.serve(s, t, th) })
	if !k.await(s, t, 1) || k.dialErr != nil {
		return fmt.Errorf("err=%v ack=%d", k.dialErr, k.ack)
	}
	return nil
}

// run lets the clients issue round-robin SETs while the armed fault
// fires and rung-1 recovery happens underneath.
func (k *sessionFault) run(s *unikernel.Sys, t *trial) error {
	k.phase = 2
	if !k.await(s, t, 2) {
		return errors.New("run phase did not finish before the deadline")
	}
	return nil
}

// verify has every client read back each SET it got acknowledged.
func (k *sessionFault) verify(s *unikernel.Sys, t *trial) error {
	k.phase = 3
	if !k.await(s, t, 3) {
		return errors.New("verify phase did not finish before the deadline")
	}
	return k.verifyErr
}

func (k *sessionFault) await(s *unikernel.Sys, t *trial, ack int) bool {
	for k.ack < ack && s.Elapsed() < t.deadlineV {
		s.Sleep(time.Millisecond)
	}
	return k.ack >= ack
}

// serve is the client thread: every phase's work, each acknowledged.
func (k *sessionFault) serve(s *unikernel.Sys, t *trial, th *sched.Thread) {
	defer func() { k.ack = 3 }()
	for i, c := range k.clients {
		peer := s.NewPeer()
		cl, err := bench.DialRedis(s, th, peer, redis.DefaultPort, 2*time.Second)
		if err != nil {
			k.dialErr = fmt.Errorf("dial client %d: %w", i, err)
			return
		}
		c.cl = cl
		defer cl.Close()
	}
	set := func(c *sessClient, ci, i int, max *time.Duration) {
		key, v := fmt.Sprintf("s%d-%03d", ci, i), fmt.Sprintf("w%d-%03d", ci, i)
		start := s.Elapsed()
		err := c.cl.Set(key, v, 2*time.Second)
		if lat := s.Elapsed() - start; lat > *max {
			*max = lat
		}
		if err != nil {
			t.errs++
			return
		}
		c.keys = append(c.keys, kvPair{key, v})
	}
	for i := 0; i < sessionWarmOps; i++ {
		for ci, c := range k.clients {
			set(c, ci, i, &c.warmMax)
		}
	}
	k.ack = 1
	for k.phase < 2 && s.Elapsed() < t.deadlineV {
		th.Sleep(time.Millisecond)
	}
	for i := sessionWarmOps; i < sessionWarmOps+sessionRunOps; i++ {
		for ci, c := range k.clients {
			set(c, ci, i, &c.runMax)
		}
	}
	k.ack = 2
	for k.phase < 3 && s.Elapsed() < t.deadlineV {
		th.Sleep(time.Millisecond)
	}
	for ci, c := range k.clients {
		for _, p := range c.keys {
			val, found, err := c.cl.Get(p.k, 2*time.Second)
			if err != nil || !found || val != p.v {
				k.verifyErr = fmt.Errorf("client %d key %s: got (%q, %v, %v), want %q",
					ci, p.k, val, found, err, p.v)
				return
			}
		}
	}
}

func (k *sessionFault) judge(j *judgement) {
	st, reboots, micros := j.st, j.reboots, j.rt.Microreboots()
	triggered := j.fired()

	// The ladder must have engaged at the session rung: the crash struck a
	// session-attributable site, so rung 1 is attempted — it either
	// completes (a MicrorebootRecord, no component reboot) or honestly
	// escalates to exactly one component reboot of the target group.
	attempted := st.Microreboots + st.MicroEscalates
	if triggered {
		j.check("session-recovery", attempted >= 1 && st.FailedRestores == 0,
			"rung 1 never attempted or restore failed: microreboots=%d escalations=%d failedRestores=%d",
			st.Microreboots, st.MicroEscalates, st.FailedRestores)
		stray := strayReboots(reboots, j.target)
		switch {
		case st.Microreboots >= 1:
			j.check("containment", len(micros) == 1 && len(reboots) == 0 && st.MicroEscalates == 0,
				"rung 1 succeeded but recovery leaked: microreboots=%d reboots=%d escalations=%d",
				len(micros), len(reboots), st.MicroEscalates)
		case st.MicroEscalates >= 1:
			j.check("containment", len(reboots) == 1 && len(stray) == 0,
				"escalation leaked past the target group: reboots=%d stray=%v", len(reboots), stray)
		}
	}

	// Untouched sessions observe zero errors. The recovery machinery
	// retries the faulted call transparently too, so the budget is zero
	// for every client, victim included.
	j.check("untouched-sessions", j.t.errs == 0,
		"%d client errors across %d sessions (want 0 everywhere)", j.t.errs, len(k.clients))

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
		for ci, c := range k.clients {
			if bound := c.warmMax + recoveryV + sessionLatencySlack; c.runMax > bound {
				latOK = false
				detail = fmt.Sprintf("client %d: worst run SET %v exceeds bound %v (warm %v + recovery %v + slack)",
					ci, c.runMax, bound, c.warmMax, recoveryV)
				break
			}
		}
		j.check("latency-bound", latOK, "%s", detail)
	}

	// The trace tells the same story as the runtime records: one
	// KindMicroreboot span per attempt, escalations parented to it.
	spans := trace.RebootTimelines(j.events, trace.KindMicroreboot)
	valid := trace.Validate(j.events)
	traceOK := valid == nil && uint64(len(spans)) == attempted
	if traceOK && st.Microreboots >= 1 {
		traceOK = len(spans) == 1 && !spans[0].Failed && len(spans[0].Phases) >= 3
	}
	if traceOK && st.MicroEscalates >= 1 {
		traceOK = len(spans) == 1 && spans[0].Failed
	}
	j.check("trace-complete", traceOK, "validate=%v spans=%d attempted=%d (%+v)",
		valid, len(spans), attempted, spans)

	j.invariants()
}
