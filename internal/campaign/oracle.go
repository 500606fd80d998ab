package campaign

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"vampos/internal/core"
	"vampos/internal/trace"
)

// Verdict classifies one trial.
type Verdict string

const (
	// VerdictPass: every oracle held.
	VerdictPass Verdict = "pass"
	// VerdictFail: at least one oracle was violated on a cell that was
	// expected to recover — a regression.
	VerdictFail Verdict = "fail"
	// VerdictExpected: the cell targets a documented-unrebootable
	// component (VIRTIO) with a reboot-inducing fault; whatever happened
	// is recorded but never counted as a regression.
	VerdictExpected Verdict = "expected-unrecoverable"
	// VerdictNotTriggered: the armed fault never fired — the fault site
	// was not invoked by this workload. Informative for per-function
	// campaigns; a regression only for wildcard fault sites, which the
	// workload drivers guarantee to reach.
	VerdictNotTriggered Verdict = "not-triggered"
)

// OracleResult is one recovery oracle's judgement of a trial.
type OracleResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// serviceBudget bounds client-visible errors during the tolerant run
// phase: the kind's fixed budget, or else the workload's.
func (t *trial) serviceBudget() int {
	if t.fault.budget != nil {
		return *t.fault.budget
	}
	if t.workload.inProcess {
		return 0
	}
	return 20
}

// judgement collects one trial's oracles, in matrix order, and the
// runtime facts they read. Every kind writes into one, and verdict folds
// it; the oracles more than one kind writes are its methods.
type judgement struct {
	t        *trial
	rt       *core.Runtime
	st       core.RuntimeStats
	reboots  []core.RebootRecord
	events   []trace.Event
	target   string // the group of the cell's component
	phaseErr error
	oracles  []OracleResult
	// unfired lists the oracles that fail vacuously because the armed
	// fault never fired (no fault event, no reboot, no recovery chain).
	// Only they may fail for the cell to read not-triggered: an unreached
	// site must not degrade the application.
	unfired []string
}

// check records one oracle; its detail is formatted only on failure.
func (j *judgement) check(name string, ok bool, format string, args ...any) {
	r := OracleResult{Name: name, OK: ok}
	if !ok {
		r.Detail = fmt.Sprintf(format, args...)
	}
	j.oracles = append(j.oracles, r)
}

// fired writes the fault-triggered oracle of a kind that arms a fault
// site. When the fault never fired, it and the vacuous oracles named may
// fail without the cell failing.
func (j *judgement) fired(vacuous ...string) bool {
	pending := j.rt.PendingFaults()
	n := 0
	for _, e := range j.events {
		if e.Kind == trace.KindFault {
			n++
		}
	}
	ok := len(pending) == 0 && n >= 1
	j.check("fault-triggered", ok, "fault never fired: pending=%v, fault events=%d", pending, n)
	if !ok {
		j.unfired = append([]string{"fault-triggered"}, vacuous...)
	}
	return ok
}

// confined reports whether recovery rebooted group n times (at least once
// when n is 0) and nothing else, every restore clean, and what it saw.
func (j *judgement) confined(group string, n int) (bool, string) {
	stray := strayReboots(j.reboots, group)
	count := len(j.reboots) >= 1
	if n > 0 {
		count = len(j.reboots) == n
	}
	return count && len(stray) == 0 && j.st.FailedRestores == 0,
		fmt.Sprintf("reboots=%d stray=%v failedRestores=%d", len(j.reboots), stray, j.st.FailedRestores)
}

// transient writes the containment oracle of a fault that must not set
// recovery off at all.
func (j *judgement) transient() {
	j.check("containment", len(j.reboots) == 0 && j.st.Failures == 0 && j.st.Hangs == 0,
		"transient fault escalated: reboots=%d failures=%d hangs=%d",
		len(j.reboots), j.st.Failures, j.st.Hangs)
}

func (j *judgement) service() {
	j.check("service", j.t.errs <= j.t.serviceBudget(),
		"%d client errors exceed budget %d", j.t.errs, j.t.serviceBudget())
}

func (j *judgement) invariants() {
	t := j.t
	j.check("invariants", j.phaseErr == nil && t.finished && t.verifyErr == nil && t.corrupt == 0,
		"phaseErr=%v finished=%v verify=%v corrupt=%d", j.phaseErr, t.finished, t.verifyErr, t.corrupt)
}

// checkpoint is armed only when incremental checkpointing is on: the
// checkpoint machinery must never fail a capture, and — with
// requireRestore — when the faulted component had checkpointed before its
// reboot, recovery must have restored from that image: the
// post-checkpoint recovery whose application-level correctness the
// invariants oracle validates against the host shadow.
func (j *judgement) checkpoint(requireRestore bool) {
	if !j.t.profile.Core.Ckpt.Enabled() {
		return
	}
	cell := j.t.cell
	restored := true
	if cs, _ := j.rt.ComponentStats(cell.Component); requireRestore &&
		cs.Ckpt.CheckpointCount > 0 && !cell.Expected && len(j.reboots) > 0 {
		restored = false
		for _, r := range j.reboots {
			if r.Group == j.target && r.RestoredPages > 0 {
				restored = true
				break
			}
		}
	}
	j.check("checkpoint", j.st.CheckpointErrs == 0 && restored,
		"checkpointErrs=%d restoredFromImage=%v", j.st.CheckpointErrs, restored)
}

func (j *judgement) traceComplete() {
	err := traceComplete(j.t.cell, j.events, len(j.reboots))
	j.check("trace-complete", err == nil, "%v", err)
}

// instanceTail writes the oracles every non-attack single-instance kind
// ends with.
func (j *judgement) instanceTail() {
	j.service()
	j.invariants()
	j.checkpoint(true)
	j.traceComplete()
}

// verdict folds the oracles into the cell's verdict and detail.
func (j *judgement) verdict() (Verdict, string) {
	var failed []string
	for _, o := range j.oracles {
		if !o.OK {
			failed = append(failed, o.Name)
		}
	}
	detail := ""
	if j.phaseErr != nil {
		detail = j.phaseErr.Error()
	}
	switch {
	case j.t.cell.Expected:
		if len(failed) == 0 {
			detail = "expected-unrecoverable cell incidentally satisfied every oracle"
		} else if detail == "" {
			detail = "oracle failures (expected): " + strings.Join(failed, ", ")
		}
		return VerdictExpected, detail
	case len(failed) == 0:
		return VerdictPass, detail
	case j.unfired != nil && !slices.ContainsFunc(failed, func(name string) bool {
		return !slices.Contains(j.unfired, name)
	}):
		return VerdictNotTriggered, "fault site not reached by this workload"
	}
	if detail == "" {
		detail = "oracle failures: " + strings.Join(failed, ", ")
	}
	return VerdictFail, detail
}

// traceComplete checks that the flight-recorder snapshot is structurally
// valid and tells the same story as the runtime's own records: every
// runtime reboot has a trace span, and reboot-inducing faults show a
// causally complete fault → detect → reboot chain with phase tiling.
func traceComplete(cell Cell, events []trace.Event, runtimeReboots int) error {
	if err := trace.Validate(events); err != nil {
		return err
	}
	timelines := trace.RebootTimelines(events, trace.KindReboot)
	if len(timelines) != runtimeReboots {
		return fmt.Errorf("trace has %d reboot spans, runtime recorded %d", len(timelines), runtimeReboots)
	}
	if cell.Fault == FaultCrash || cell.Fault == FaultHang {
		recoveries := trace.Recoveries(events)
		if len(recoveries) != 1 {
			return fmt.Errorf("want exactly one recovery chain, trace has %d", len(recoveries))
		}
		r := recoveries[0]
		if r.Reboot == nil {
			return fmt.Errorf("recovery chain has no reboot span")
		}
		if r.Detected == 0 {
			return fmt.Errorf("recovery chain has no detection instant")
		}
		if cell.Fault == FaultCrash && r.Crash == 0 {
			return fmt.Errorf("crash recovery chain has no crash instant")
		}
		if len(r.Reboot.Phases) == 0 {
			return fmt.Errorf("reboot span has no lifecycle phases")
		}
		var sum time.Duration
		for _, d := range r.Reboot.Phases {
			if d < 0 {
				return fmt.Errorf("negative phase duration %v", d)
			}
			sum += d
		}
		if sum > r.Reboot.Virtual()+time.Millisecond {
			return fmt.Errorf("phases (%v) overflow the reboot span (%v)", sum, r.Reboot.Virtual())
		}
	}
	return nil
}

// strayReboots lists reboot-record groups other than the expected one.
func strayReboots(recs []core.RebootRecord, want string) []string {
	var stray []string
	for _, r := range recs {
		if r.Group != want {
			stray = append(stray, r.Group)
		}
	}
	return stray
}
