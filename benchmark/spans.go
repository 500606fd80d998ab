package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"vampos/internal/trace"
)

// spanLog is the benchmark's own span tree — run > setup | warmup | timed
// > op, and one layer.<metric> span per T batch — kept in memory on the
// wall clock and written out when the run ends. A nil log records nothing:
// the untraced runs pay one nil check per op.
type spanLog struct {
	t0    time.Time
	spans []span
}

type span struct {
	name, lane string
	parent     spanID
	start, end time.Duration // offsets from spanLog.t0
}

// spanID is an index into spanLog.spans plus one; zero is no span.
type spanID int

const mainLane = "main"

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span. Spans of one lane nest; a client thread's ops get a
// lane of their own, because two clients' ops overlap.
func (l *spanLog) begin(parent spanID, lane, name string) spanID {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0)
	l.spans = append(l.spans, span{name: name, lane: lane, parent: parent, start: now, end: now})
	return spanID(len(l.spans))
}

func (l *spanLog) end(id spanID) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].end = time.Since(l.t0)
}

// chromeEvent is one object of the Trace Event Format that Perfetto and
// chrome://tracing load: "X" is a complete span, "i" an instant, "M" names
// a process or thread. Times are microseconds.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// lanes hands out one thread id per lane of a process and names it.
type lanes struct {
	pid    int
	ids    map[string]int
	events *[]chromeEvent
}

func newLanes(pid int, process string, events *[]chromeEvent) *lanes {
	*events = append(*events, chromeEvent{Name: "process_name", Phase: "M", PID: pid, Args: map[string]any{"name": process}})
	return &lanes{pid: pid, ids: make(map[string]int), events: events}
}

func (l *lanes) tid(lane string) int {
	id, ok := l.ids[lane]
	if !ok {
		id = len(l.ids) + 1
		l.ids[lane] = id
		*l.events = append(*l.events, chromeEvent{Name: "thread_name", Phase: "M", PID: l.pid, TID: id, Args: map[string]any{"name": lane}})
	}
	return id
}

// writeChromeTrace writes the benchmark's spans (process 1) and the
// program's flight-recorder events (process 2, one thread per component)
// as one Chrome-trace JSON file. Both are on the wall clock, the one the
// attribution reads; each recorder event carries its virtual times in
// args. recT0 is the wall instant the recorder's clock started.
func writeChromeTrace(path string, spans *spanLog, rec *trace.Recorder, recT0 time.Time) error {
	var events []chromeEvent
	micros := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

	own := newLanes(1, "benchmark", &events)
	for i, sp := range spans.spans {
		dur := micros(sp.end - sp.start)
		ev := chromeEvent{
			Name: sp.name, Cat: "benchmark", Phase: "X", TS: micros(sp.start), Dur: &dur,
			PID: 1, TID: own.tid(sp.lane), Args: map[string]any{"id": i + 1},
		}
		if sp.parent != 0 {
			ev.Args["parent"] = int(sp.parent)
		}
		events = append(events, ev)
	}

	prog := newLanes(2, rec.Name(), &events)
	offset := recT0.Sub(spans.t0)
	for _, e := range rec.Snapshot() {
		name := e.Kind.String() + ":" + e.Name
		if e.Peer != "" {
			name = e.Kind.String() + ":" + e.Peer + "." + e.Name
		}
		ev := chromeEvent{
			Name: name, Cat: e.Kind.String(), TS: micros(offset + e.WallStart),
			PID: 2, TID: prog.tid(e.Component),
			Args: map[string]any{"id": uint64(e.ID), "virt_start_us": micros(e.VirtStart)},
		}
		if e.Parent != 0 {
			ev.Args["parent"] = uint64(e.Parent)
		}
		if e.Detail != "" {
			ev.Args["detail"] = e.Detail
		}
		if e.Instant() {
			ev.Phase, ev.Scope = "i", "t"
		} else {
			dur := micros(e.WallDuration())
			ev.Phase, ev.Dur = "X", &dur
			ev.Args["virt_us"] = micros(e.VirtDuration())
			if e.Open {
				ev.Args["open"] = true
			}
		}
		events = append(events, ev)
	}

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
