package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// WriteText renders a human-readable timeline of the snapshot followed
// by per-component-pair hop-latency histograms. Spans are indented
// under their parent when the parent is present in the snapshot.
func WriteText(w io.Writer, recs ...*Recorder) error {
	for _, r := range recs {
		if r == nil {
			continue
		}
		evs := r.Snapshot()
		name := r.Name()
		if name == "" {
			name = "trace"
		}
		fmt.Fprintf(w, "=== %s: %d events", name, len(evs))
		if d := r.Dropped(); d > 0 {
			fmt.Fprintf(w, " (%d older events evicted)", d)
		}
		fmt.Fprintln(w, " ===")
		depth := make(map[SpanID]int, len(evs))
		present := make(map[SpanID]bool, len(evs))
		for _, e := range evs {
			present[e.ID] = true
		}
		for _, e := range evs {
			d := 0
			if e.Parent != 0 && present[e.Parent] {
				d = depth[e.Parent] + 1
			}
			depth[e.ID] = d
			if _, err := fmt.Fprintln(w, formatEvent(e, d)); err != nil {
				return err
			}
		}
		if err := writeHops(w, evs); err != nil {
			return err
		}
		if err := writeRebootSummary(w, evs); err != nil {
			return err
		}
	}
	return nil
}

// formatEvent renders one timeline line.
func formatEvent(e Event, depth int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%12s] ", fmtOffset(e.VirtStart))
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(e.Kind.String())
	b.WriteByte(' ')
	b.WriteString(e.Component)
	if e.Peer != "" {
		b.WriteString("->")
		b.WriteString(e.Peer)
	}
	if e.Name != "" {
		b.WriteByte('.')
		b.WriteString(e.Name)
	}
	if !e.Instant() {
		fmt.Fprintf(&b, " (%v virt / %v wall", e.VirtDuration().Round(time.Nanosecond), e.WallDuration().Round(time.Microsecond))
		if e.Open {
			b.WriteString(", unfinished")
		}
		b.WriteByte(')')
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " [%s]", e.Detail)
	}
	return b.String()
}

func fmtOffset(d time.Duration) string {
	return fmt.Sprintf("+%.6fs", d.Seconds())
}

// writeHops renders the per-pair hop-latency histograms.
func writeHops(w io.Writer, evs []Event) error {
	hops := Hops(evs)
	if len(hops) == 0 {
		return nil
	}
	keys := make([]HopKey, 0, len(hops))
	for k := range hops {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	fmt.Fprintln(w, "--- hop latencies (virtual) ---")
	for _, k := range keys {
		h := hops[k]
		fmt.Fprintf(w, "%-24s n=%-6d req mean %-10v reply mean %-10v rtt mean %-10v max %v\n",
			k, h.Count, h.Request.Mean(), h.Reply.Mean(), h.RoundTrip.Mean(), h.RoundTrip.Max)
		fmt.Fprintf(w, "%-24s rtt histogram: %s\n", "", h.RoundTrip.Histogram())
	}
	return nil
}

// Histogram renders the log2-µs buckets as "label:count" pairs,
// omitting empty buckets.
func (d DurationDist) Histogram() string {
	var parts []string
	for i, n := range d.Buckets {
		if n == 0 {
			continue
		}
		lo := 1 << i
		if i == 0 {
			parts = append(parts, fmt.Sprintf("<2µs:%d", n))
		} else {
			parts = append(parts, fmt.Sprintf("%dµs:%d", lo, n))
		}
	}
	if len(parts) == 0 {
		return "(empty)"
	}
	return strings.Join(parts, " ")
}

// writeRebootSummary renders the reboot phase breakdowns.
func writeRebootSummary(w io.Writer, evs []Event) error {
	tls := RebootTimelines(evs, KindReboot)
	if len(tls) == 0 {
		return nil
	}
	fmt.Fprintln(w, "--- reboots ---")
	for _, tl := range tls {
		status := "ok"
		if tl.Failed {
			status = "FAILED"
		}
		fmt.Fprintf(w, "%-14s at %s total %-10v [%s]", tl.Component, fmtOffset(tl.Start), tl.Virtual(), status)
		for _, ph := range PhaseNames() {
			if d, ok := tl.Phases[ph]; ok {
				fmt.Fprintf(w, " %s=%v", ph, d)
			}
		}
		fmt.Fprintf(w, " (%s)\n", tl.Name)
	}
	return nil
}
