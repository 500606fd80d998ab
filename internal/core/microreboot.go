package core

import (
	"errors"
	"fmt"
	"time"

	"vampos/internal/msg"
)

// ErrMicrorebootEscalated reports that a requested session microreboot
// could not complete at the session rung and was escalated to a
// whole-component reboot (which succeeded — a failed escalation surfaces
// as ErrComponentFailed instead).
var ErrMicrorebootEscalated = errors.New("core: session microreboot escalated to component reboot")

// MicrorebootRecord describes one completed session microreboot — rung 1
// of the recovery ladder: one session's state evicted from the live
// component and rebuilt by replaying its surviving log slice while every
// other session kept serving.
type MicrorebootRecord struct {
	Component       string
	Session         string
	Reason          string
	VirtualDuration time.Duration
	WallDuration    time.Duration
	ReplayedEntries int
	At              time.Time
}

// attributeSession decides whether a detected failure of group g, struck
// while executing fn(args), can be recovered at the session rung. The
// conditions are deliberately conservative — anything not provably
// session-local escalates to the component rung:
//
//   - the configuration opted in (Config.Microreboot);
//   - the group is a singleton: a merged group's members share one
//     worker, and a session of one reaches into the co-member's state
//     (a VFS fd holds a 9PFS fid) — merged groups always recover at
//     component granularity;
//   - the component is stateful (stateless ones re-init, which is
//     already cheap) and rebootable;
//   - it implements SessionEvictor (to remove its live state);
//   - fn's row attributes the call to a session by its arguments —
//     openers and non-session calls name none and escalate;
//   - the log holds a live opener for that session, so replaying its
//     slice can actually rebuild it.
//
// A nil component means rung 2.
func (rt *Runtime) attributeSession(g *group, fn string, args msg.Encoded) (*component, msg.SessionID) {
	if !rt.cfg.Microreboot || len(g.members) != 1 || fn == "" {
		return nil, ""
	}
	c := g.members[0]
	if !c.desc.Stateful || c.desc.Unrebootable {
		return nil, ""
	}
	if _, ok := c.comp.(SessionEvictor); !ok {
		return nil, ""
	}
	session := c.policies[fn].FaultSession(c.sessions, args)
	if session == "" || !c.domain.Log().HasLiveOpener(session) {
		return nil, ""
	}
	return c, session
}

// Microreboots returns the completed session-microreboot records in
// order. Safe to call from any goroutine.
func (rt *Runtime) Microreboots() []MicrorebootRecord { return copyRecords(rt, &rt.microreboots) }

// MicrorebootSession proactively microreboots one session of the named
// component: evict its live state and rebuild it from the log while the
// component keeps serving every other session. The preconditions mirror
// the failure-path attribution; an attempt that escalates returns
// ErrMicrorebootEscalated after the component reboot completes.
func (c *Ctx) MicrorebootSession(name, session string) error {
	rt := c.rt
	tc, err := c.awaitIdle(name, "microreboot its own session", func(tc *component) error {
		if !rt.cfg.MessagePassing || !rt.cfg.Microreboot {
			return fmt.Errorf("core: session microreboot of %q requires the Microreboot configuration", name)
		}
		if g := tc.group; len(g.members) != 1 {
			return fmt.Errorf("core: %q is merged into %s; session microreboots need a singleton group", name, g.name)
		}
		if tc.desc.Unrebootable {
			return fmt.Errorf("%w: %s shares state with the host", ErrUnrebootable, name)
		}
		if _, okE := tc.comp.(SessionEvictor); !okE || !tc.desc.Stateful {
			return fmt.Errorf("core: %q does not support session eviction", name)
		}
		return nil
	})
	if err != nil {
		return err
	}
	sid := msg.SessionID(session)
	if !tc.domain.Log().HasLiveOpener(sid) {
		return fmt.Errorf("core: %s/%s has no live opener in the log", name, session)
	}
	// The outcome is read from this call's own recovery: another
	// component's microreboot completing meanwhile says nothing about it.
	r := rt.beginRecovery(tc.group, tc, sid, "proactive", true, c.span)
	if !awaitRecovered(c.th, tc.group) {
		return fmt.Errorf("%w: %s", ErrComponentFailed, name)
	}
	if r.comp == nil {
		return fmt.Errorf("%w: %s/%s", ErrMicrorebootEscalated, name, session)
	}
	return nil
}
