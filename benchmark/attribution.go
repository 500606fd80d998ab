package main

import (
	"sort"
	"strings"
	"time"

	"vampos/internal/trace"
)

// The R rows: where the traced segment's wall time went, derived from the
// program's flight recorder.
//
// A syscall span contains a call span, which contains the handler's exec
// span, which contains the calls the handler makes, and so on down the
// stack. A span's self time is its duration minus the child spans it
// waits for, and a span runs its own code exactly while it is open and
// none of those children is. That gives two views of the segment:
//
//   - per component, the self time of its exec spans summed
//     (<layer>.exec_self_share; app.exec_self_share is the system-call
//     stub's, from the syscall spans). On kv_sharded slices run in
//     parallel, so these can add up to more than attr.exec_share;
//   - a partition of the wall clock. Every instant is exec (at least one
//     handler or stub is running its own code), else hop (a request is in
//     flight but no handler runs: push, scheduler handoff, pull, wake-up,
//     the conductor, a recovery), else client (no request in flight: the
//     load generator). The three attr.*_share rows are that partition, so
//     they add up to 1 when the interval arithmetic is right.
type attribution struct {
	wall              time.Duration
	events            int
	execSelf          map[string]time.Duration // component -> handler self time
	appSelf           time.Duration
	exec, hop, client time.Duration
	phaseWall         map[string]time.Duration
	phaseN            map[string]int
}

// edge is one span boundary on the sweep line.
type edge struct {
	at              time.Duration
	running, flight int // change in spans running own code / root spans open
}

// attribute walks the recorder's events that lie inside the timed phase;
// from and to are offsets on the recorder's wall clock.
func attribute(events []trace.Event, from, to time.Duration) attribution {
	at := attribution{
		wall:      to - from,
		execSelf:  make(map[string]time.Duration),
		phaseWall: make(map[string]time.Duration),
		phaseN:    make(map[string]int),
	}
	inside := func(e trace.Event) bool { return e.WallStart >= from && e.WallEnd <= to && !e.Open }
	// runs holds the spans that execute code of their own. (The DaS
	// configuration merges no components, so there are no direct calls.)
	runs := make(map[trace.SpanID]bool)
	for _, e := range events {
		if inside(e) && (e.Kind == trace.KindExec || e.Kind == trace.KindSyscall) {
			runs[e.ID] = true
		}
	}
	// waited[p] is the wall time p spent waiting for its children. An
	// injected call is fire-and-forget: its parent does not wait for it.
	waited := make(map[trace.SpanID]time.Duration)
	var edges []edge
	span := func(e trace.Event, running, flight int) {
		edges = append(edges, edge{e.WallStart, running, flight}, edge{e.WallEnd, -running, -flight})
	}
	for _, e := range events {
		if !inside(e) {
			continue
		}
		at.events++
		if e.Instant() {
			continue
		}
		waits := runs[e.Parent] && !(e.Kind == trace.KindCall && strings.Contains(e.Detail, "inject"))
		switch e.Kind {
		case trace.KindExec, trace.KindSyscall:
			span(e, 1, 0)
			if waits {
				waited[e.Parent] += e.WallDuration()
				span(e, -1, 0)
			}
		case trace.KindCall:
			if waits {
				waited[e.Parent] += e.WallDuration()
				span(e, -1, 0)
			}
		case trace.KindPhase:
			at.phaseWall[e.Name] += e.WallDuration()
			at.phaseN[e.Name]++
		}
		if e.Parent == 0 && (e.Kind == trace.KindSyscall || e.Kind == trace.KindCall) {
			span(e, 0, 1)
		}
	}
	for _, e := range events {
		if !inside(e) {
			continue
		}
		switch self := e.WallDuration() - waited[e.ID]; e.Kind {
		case trace.KindExec:
			at.execSelf[e.Component] += self
		case trace.KindSyscall:
			at.appSelf += self
		}
	}

	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	var running, flight int
	last := from
	for _, ed := range edges {
		switch d := ed.at - last; {
		case running > 0:
			at.exec += d
		case flight > 0:
			at.hop += d
		default:
			at.client += d
		}
		last = ed.at
		running += ed.running
		flight += ed.flight
	}
	at.client += to - last
	return at
}

// traced turns the traced execution into the R rows. untraced holds the
// rows of the untraced segment and layer the T rows; attr.model_coverage
// multiplies the two.
func traced(m *measurement, untraced, layer values) values {
	v := make(values)
	events := m.rec.Snapshot()
	at := attribute(events, m.timedStart.Sub(m.recT0), m.timedEnd.Sub(m.recT0))
	wall := float64(at.wall)

	for _, layerName := range componentLayers {
		v.set(layerName+".exec_self_share", ratio(float64(at.execSelf[componentOf[layerName]]), wall))
	}
	v.set("app.exec_self_share", ratio(float64(at.appSelf), wall))
	v.set("attr.exec_share", ratio(float64(at.exec), wall))
	v.set("attr.hop_share", ratio(float64(at.hop), wall))
	v.set("attr.client_share", ratio(float64(at.client), wall))

	for _, phase := range trace.PhaseNames() {
		v.set("core.phase_"+phase+"_wall_us", ratio(us(at.phaseWall[phase]), float64(at.phaseN[phase])))
	}

	v.set("trace.events_per_op", ratio(float64(at.events), float64(m.ops)))
	v.set("trace.dropped", float64(m.rec.Dropped()))
	v.set("trace.overhead_ratio", ratio(untraced["wall_ops_per_s"].Value, median(m.opsPerS)))

	// The bottom-up model: each C count times the T cost of one such
	// event, summed, against the CPU an op really took.
	get := func(set values, name string) float64 { return set[name].Value }
	modelNS := get(untraced, "sched.dispatches_per_op")*get(layer, "sched.handoff_ns") +
		get(untraced, "msg.messages_per_op")*(get(layer, "msg.encode_ns")+get(layer, "msg.decode_ns")+get(layer, "msg.push_pull_ns")) +
		get(untraced, "msg.log_appended_per_op")*get(layer, "msg.log_record_ns") +
		get(untraced, "host.p9_handled_per_op")*(2*get(layer, "ninep.codec_ns")+get(layer, "ninep.server_write_ns_empty")) +
		get(untraced, "core.injects_per_op")*(get(layer, "lwip.segment_codec_ns")+get(layer, "lwip.machine_rtt_ns")/2) +
		get(untraced, "virtio.calls_per_op")*get(layer, "virtio.ring_rtt_ns")/2
	v.set("attr.model_coverage", ratio(modelNS/1e3, get(untraced, "cpu_us_per_op")))
	return v
}
