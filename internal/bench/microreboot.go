package bench

import (
	"fmt"
	"time"

	"vampos/internal/unikernel"
)

// MicrorebootArm is one measured recovery rung on the many-session
// workload: the virtual latency of the recovery and how much log it had
// to replay to get there.
type MicrorebootArm struct {
	Rung     string        // "session-microreboot", "component-reboot", "full-restart"
	Virtual  time.Duration // recovery virtual duration
	Replayed int           // log entries replayed (0 for the full restart: state is lost, not replayed)
}

// MicrorebootResult is the escalation-ladder figure: recovery latency of
// each rung on an identical many-session VFS workload. A session
// microreboot replays one session's log slice; a component reboot
// replays every session's; a full restart replays nothing because it
// keeps nothing. The headline ratio is SpeedupVsComponent — the paper's
// component-granularity argument (§III) applied one level down, to
// sessions.
type MicrorebootResult struct {
	Sessions         int // concurrently open sessions (file fds)
	WritesPerSession int // retained transient log entries per session

	Session   MicrorebootArm
	Component MicrorebootArm
	Restart   MicrorebootArm

	// SpeedupVsComponent = Component.Virtual / Session.Virtual. The
	// session rung replays 1/Sessions-th of the log, so on a
	// many-session workload this must be well above 1 (the suite's
	// shape test requires >= 5x at the default scale).
	SpeedupVsComponent float64
}

// RunMicroreboot measures the recovery ladder's first three rungs on the
// same workload shape: Sessions open file fds, each holding
// WritesPerSession retained transient log entries. Each arm boots its
// own fresh instance so no arm inherits another's recovery side effects
// (a microreboot marks its slice replayed; a full restart destroys the
// state the other arms measure against).
func RunMicroreboot(scale Scale) (*MicrorebootResult, error) {
	res := &MicrorebootResult{
		Sessions:         scale.MicroSessions,
		WritesPerSession: scale.MicroWritesPer,
	}
	arms := []struct {
		arm     *MicrorebootArm
		measure func(s *unikernel.Sys, inst *unikernel.Instance, fds []int) (MicrorebootArm, error)
	}{
		{&res.Session, measureSessionRung},
		{&res.Component, measureComponentRung},
		{&res.Restart, measureRestartRung},
	}
	for _, a := range arms {
		m, err := runMicrorebootArm(scale, a.measure)
		if err != nil {
			return nil, err
		}
		*a.arm = m
	}
	if res.Session.Virtual > 0 {
		res.SpeedupVsComponent = float64(res.Component.Virtual) / float64(res.Session.Virtual)
	}
	return res, nil
}

// runMicrorebootArm boots a fresh Microreboot-enabled DaS instance,
// builds the many-session workload, and hands the open fds to the arm's
// measurement. Log compaction is parked (as in the recovery figure) so
// the component arm replays the full retained log — the cost the
// session rung exists to avoid.
func runMicrorebootArm(scale Scale,
	measure func(s *unikernel.Sys, inst *unikernel.Instance, fds []int) (MicrorebootArm, error)) (MicrorebootArm, error) {
	cc := coreConfig(DaS)
	cc.LogShrinkThreshold = 1 << 30
	cc.Microreboot = true
	var arm MicrorebootArm
	err := runInstance(unikernel.Config{Core: cc, FS: true}, nil, func(s *unikernel.Sys, inst *unikernel.Instance) error {
		fds := make([]int, scale.MicroSessions)
		payload := []byte("01234567")
		for i := range fds {
			fd, err := s.Create(fmt.Sprintf("/micro-%03d.dat", i))
			if err != nil {
				return err
			}
			fds[i] = fd
			for w := 0; w < scale.MicroWritesPer; w++ {
				if _, err := s.Write(fd, payload); err != nil {
					return err
				}
			}
		}
		var err error
		arm, err = measure(s, inst, fds)
		return err
	})
	return arm, err
}

// measureSessionRung microreboots one victim session and checks the
// rebuilt fd still serves at its surviving offset.
func measureSessionRung(s *unikernel.Sys, inst *unikernel.Instance, fds []int) (MicrorebootArm, error) {
	victim := fds[len(fds)/2]
	if err := s.MicrorebootSession("vfs", fmt.Sprintf("fd:%d", victim)); err != nil {
		return MicrorebootArm{}, fmt.Errorf("session microreboot: %w", err)
	}
	if _, err := s.Write(victim, []byte("x")); err != nil {
		return MicrorebootArm{}, fmt.Errorf("write on rebuilt fd: %w", err)
	}
	recs := inst.Runtime().Microreboots()
	if len(recs) != 1 {
		return MicrorebootArm{}, fmt.Errorf("microreboot records = %d, want 1", len(recs))
	}
	return MicrorebootArm{
		Rung:     "session-microreboot",
		Virtual:  recs[0].VirtualDuration,
		Replayed: recs[0].ReplayedEntries,
	}, nil
}

// measureComponentRung reboots the whole VFS component, replaying every
// session's retained log.
func measureComponentRung(s *unikernel.Sys, inst *unikernel.Instance, fds []int) (MicrorebootArm, error) {
	rec, err := rebootRecord(s, "vfs")
	if err != nil {
		return MicrorebootArm{}, fmt.Errorf("component reboot: %w", err)
	}
	if _, err := s.Write(fds[len(fds)/2], []byte("x")); err != nil {
		return MicrorebootArm{}, fmt.Errorf("write after component reboot: %w", err)
	}
	return MicrorebootArm{
		Rung:     "component-reboot",
		Virtual:  rec.VirtualDuration,
		Replayed: rec.ReplayedEntries,
	}, nil
}

// measureRestartRung runs the paper's baseline: full image restart. It
// goes last in presentation but runs on its own instance anyway — it
// destroys every fd the other arms would measure. Its latency is the
// elapsed virtual span of the restart (teardown + re-init + boot
// delay); nothing is replayed because nothing survives.
func measureRestartRung(s *unikernel.Sys, inst *unikernel.Instance, fds []int) (MicrorebootArm, error) {
	v0 := s.Elapsed()
	if err := s.FullReboot(); err != nil {
		return MicrorebootArm{}, fmt.Errorf("full restart: %w", err)
	}
	return MicrorebootArm{
		Rung:    "full-restart",
		Virtual: s.Elapsed() - v0,
	}, nil
}

// Render produces the escalation-ladder figure as a table.
func (r *MicrorebootResult) Render() string {
	t := &table{
		title: fmt.Sprintf("Microreboot figure — recovery ladder on %d sessions x %d writes (VFS, DaS)",
			r.Sessions, r.WritesPerSession),
		headers: []string{"rung", "virtual", "replayed"},
	}
	for _, a := range []MicrorebootArm{r.Session, r.Component, r.Restart} {
		t.addRow(a.Rung, fmtDur(a.Virtual), fmt.Sprintf("%d", a.Replayed))
	}
	t.addNote(fmt.Sprintf("session microreboot is %.1fx faster than component reboot: it replays one session's slice, not all %d sessions'", r.SpeedupVsComponent, r.Sessions))
	t.addNote("full restart replays nothing because it keeps nothing: every session, file, and connection is lost and the boot delay is charged")
	return t.String()
}
