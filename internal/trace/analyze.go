package trace

import (
	"fmt"
	"sort"
	"time"
)

// Phase names emitted by the reboot manager, in lifecycle order.
const (
	PhaseQuiesce = "quiesce"
	PhaseRestore = "restore"
	PhaseReplay  = "replay"
	PhaseResume  = "resume"
)

// PhaseEvict names the first phase of a session microreboot: removing
// the faulted session's live state from the running component. The
// replay and resume that follow reuse the reboot phase names. Like
// PhaseCheckpoint it is absent from PhaseNames: microreboot spans have
// their own tiling under KindMicroreboot, not under KindReboot.
const PhaseEvict = "evict"

// PhaseCheckpoint names the span the checkpoint manager emits around one
// incremental checkpoint (KindCkpt). It is not a reboot lifecycle phase
// — checkpoints happen between calls, not inside a recovery — so it is
// deliberately absent from PhaseNames and from RebootTimelines' tiling.
const PhaseCheckpoint = "checkpoint"

// PhaseNames lists the reboot phases in lifecycle order.
func PhaseNames() []string {
	return []string{PhaseQuiesce, PhaseRestore, PhaseReplay, PhaseResume}
}

// RebootTimeline is one recovery span reconstructed from the event
// stream with its phases: a component-group or image reboot
// (KindReboot) or a session microreboot (KindMicroreboot). The figure-6
// phase breakdown, the figure-8 recovery segment and the campaign's
// trace oracles all read it.
type RebootTimeline struct {
	// Component and Name are the span's: the rebooted group ("image" for
	// a full restart) and the reboot's reason, or the microrebooted
	// component and session.
	Component, Name string
	// Start/End are virtual offsets since boot.
	Start, End time.Duration
	// Phases maps phase name -> virtual duration.
	Phases map[string]time.Duration
	// Failed marks a span that did not end "ok": a reboot whose
	// restoration failed (fail-stop), or a microreboot that escalated to
	// a component reboot.
	Failed bool
}

// Virtual is the span's total virtual duration.
func (t RebootTimeline) Virtual() time.Duration { return t.End - t.Start }

// RebootTimelines reconstructs every span of kind (KindReboot or
// KindMicroreboot) in the snapshot, in start order. These spans and
// their phases are sticky in the recorder, so the reconstruction is
// exact regardless of ring evictions.
func RebootTimelines(events []Event, kind Kind) []RebootTimeline {
	var out []RebootTimeline
	byID := make(map[SpanID]int) // span id -> index in out
	for _, e := range events {
		if e.Kind != kind {
			continue
		}
		byID[e.ID] = len(out)
		out = append(out, RebootTimeline{
			Component: e.Component, Name: e.Name,
			Start: e.VirtStart, End: e.VirtEnd,
			Phases: make(map[string]time.Duration),
			Failed: e.Detail != "" && e.Detail != "ok",
		})
	}
	for _, e := range events {
		if e.Kind != KindPhase {
			continue
		}
		if i, ok := byID[e.Parent]; ok {
			out[i].Phases[e.Name] += e.VirtDuration()
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Recovery is the causal recovery chain around one injected fault,
// reconstructed from sticky events: when the fault fired, when the
// failure was detected, and the reboot that followed. Fields are
// virtual offsets since boot; zero means "not observed".
type Recovery struct {
	Fault    time.Duration // armed fault fired (KindFault)
	Crash    time.Duration // handler panic captured (KindCrash)
	Detected time.Duration // failure attributed / hang declared (KindDetect)
	Reboot   *RebootTimeline
}

// Recoveries pairs each fault instant with the first reboot that starts
// at or after it. Detection and crash instants between the fault and
// the reboot end are attributed to that recovery.
func Recoveries(events []Event) []Recovery {
	timelines := RebootTimelines(events, KindReboot)
	var out []Recovery
	for _, e := range events {
		if e.Kind != KindFault {
			continue
		}
		rec := Recovery{Fault: e.VirtStart}
		for i := range timelines {
			if timelines[i].Start >= e.VirtStart {
				rec.Reboot = &timelines[i]
				break
			}
		}
		horizon := time.Duration(1<<62 - 1)
		if rec.Reboot != nil {
			horizon = rec.Reboot.End
		}
		for _, x := range events {
			if x.VirtStart < e.VirtStart || x.VirtStart > horizon {
				continue
			}
			switch x.Kind {
			case KindCrash:
				if rec.Crash == 0 {
					rec.Crash = x.VirtStart
				}
			case KindDetect:
				if rec.Detected == 0 {
					rec.Detected = x.VirtStart
				}
			}
		}
		out = append(out, rec)
	}
	return out
}

// Validate checks structural invariants of a snapshot: ids are unique,
// parents (when present in the snapshot) start no later than their
// children end, and closed spans have End >= Start. It returns the
// first violation found, or nil.
func Validate(events []Event) error {
	seen := make(map[SpanID]Event, len(events))
	for _, e := range events {
		if e.ID == 0 {
			return fmt.Errorf("trace: event with zero id (%s %s)", e.Kind, e.Name)
		}
		if _, dup := seen[e.ID]; dup {
			return fmt.Errorf("trace: duplicate event id %d", e.ID)
		}
		seen[e.ID] = e
		if e.VirtEnd < e.VirtStart {
			return fmt.Errorf("trace: event %d (%s %s) ends before it starts", e.ID, e.Kind, e.Name)
		}
	}
	for _, e := range events {
		if e.Parent == 0 {
			continue
		}
		if p, ok := seen[e.Parent]; ok && p.VirtStart > e.VirtStart {
			return fmt.Errorf("trace: event %d starts before its parent %d", e.ID, e.Parent)
		}
	}
	return nil
}
