package core

import (
	"testing"
	"time"

	"vampos/internal/msg"
	"vampos/internal/trace"
)

// These tests pin the three sites the sharded-baton audit found to be
// leaning on single-baton assumptions: the pending walk's wake ordering,
// the watchdog's hang attribution across a cross-shard call chain, and
// the trace recorder's canonical ordering when events are emitted from
// concurrent round slices.

// TestPendingInOrderAscendingSeq: resolution order decides the order
// blocked callers wake in — which feeds the run queue, which decides what
// the log records next — so the pending walk must visit the live calls in
// strictly ascending seq, whatever order earlier calls resolved in and
// even when the walk itself resolves them.
func TestPendingInOrderAscendingSeq(t *testing.T) {
	var p pendingTable
	calls := make(map[uint64]*pendingCall)
	for seq := uint64(1); seq <= 31; seq++ {
		calls[seq] = &pendingCall{seq: seq}
		p.add(calls[seq])
	}
	for _, seq := range []uint64{9, 2, 31, 7, 1, 30, 4, 18} {
		p.resolve(calls[seq])
	}
	var got []uint64
	p.each(func(pc *pendingCall) {
		got = append(got, pc.seq)
		p.resolve(pc)
	})
	if len(got) != 31-8 {
		t.Fatalf("the walk visited %d calls, want %d", len(got), 31-8)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("the walk is not strictly ascending at %d: %d then %d",
				i, got[i-1], got[i])
		}
	}
	if len(p.calls) != 0 {
		t.Fatalf("%d entries left after every call resolved", len(p.calls))
	}
}

// hangEcho is a downstream component whose echo handler hangs once on a
// trigger value, then (the trigger cleared before the hang, mirroring
// kvComp) serves the retry normally after the watchdog reboots it.
type hangEcho struct {
	name   string
	hangOn string
}

func (h *hangEcho) Describe() Descriptor {
	return Descriptor{Name: h.name, Stateful: true, HeapPages: 16, DomainPages: 16}
}

func (h *hangEcho) Init(*Ctx) error { return nil }

func (h *hangEcho) Exports() map[string]Handler {
	return map[string]Handler{
		"echo": func(ctx *Ctx, args msg.Encoded) (msg.Encoded, error) {
			s, err := args.Str(0)
			if err != nil {
				return nil, err
			}
			if h.hangOn != "" && s == h.hangOn {
				h.hangOn = ""
				for {
					ctx.Sleep(10 * time.Second)
				}
			}
			return ctx.Ret(s + "!")
		},
	}
}

// relay forwards its one export to a downstream component, so the relay
// worker blocks mid-handler on a cross-shard call while the downstream
// executes.
type relay struct {
	name, backend string
}

func (r *relay) Describe() Descriptor {
	return Descriptor{Name: r.name, Stateful: true, HeapPages: 16, DomainPages: 16}
}

func (r *relay) Init(*Ctx) error { return nil }

func (r *relay) Exports() map[string]Handler {
	return map[string]Handler{
		"relay": func(ctx *Ctx, args msg.Encoded) (msg.Encoded, error) {
			s, err := args.Str(0)
			if err != nil {
				return nil, err
			}
			return ctx.Call(r.backend, "echo", s)
		},
	}
}

// TestWatchdogCrossShardHangAttribution: under the sharded engine the
// relay group and its downstream live on different shard batons. When
// the downstream hangs, the relay's worker is also busy past the
// threshold — but only because it is blocked on the cross-shard call.
// The watchdog must skip the blocked caller (awaitingDownstream) and
// reboot the component that is actually stuck; rebooting the relay
// would tear down an innocent domain and still leave the hang in place.
func TestWatchdogCrossShardHangAttribution(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		echo := &hangEcho{name: "echo", hangOn: "stuck"}
		front := &relay{name: "front", backend: "echo"}
		cfg := DaSConfig()
		cfg.Shards = shards
		cfg.HangThreshold = 500 * time.Millisecond
		cfg.WatchdogPeriod = 50 * time.Millisecond
		rt := run(t, cfg, []Component{front, echo}, func(c *Ctx) {
			// Hangs downstream; the watchdog reboots echo, the relay's
			// call retries transparently, and the reply comes back.
			rets := mustCall(t, c, "front", "relay", "stuck")
			if v, _ := rets.Str(0); v != "stuck!" {
				t.Errorf("shards=%d: relay = %q, want stuck!", shards, v)
			}
		})
		if rt.Stats().Hangs != 1 {
			t.Fatalf("shards=%d: Hangs = %d, want 1", shards, rt.Stats().Hangs)
		}
		reboots := rt.Reboots()
		if len(reboots) != 1 {
			t.Fatalf("shards=%d: reboots = %+v, want exactly one", shards, reboots)
		}
		if reboots[0].Group != "echo" {
			t.Fatalf("shards=%d: watchdog rebooted %q, want the hung downstream %q",
				shards, reboots[0].Group, "echo")
		}
		if reboots[0].Reason != "hang" {
			t.Fatalf("shards=%d: reboot reason %q, want hang", shards, reboots[0].Reason)
		}
		if fs, ok := rt.ComponentStats("front"); !ok || fs.Reboots != 0 {
			t.Fatalf("shards=%d: blocked caller was rebooted (%+v)", shards, fs)
		}
	}
}

// TestTraceCanonicalOrderUnderRounds: trace events are emitted from
// concurrent runner goroutines during a round, so ring insertion order
// is not causal order. The recorder's contract is that Snapshot restores
// the canonical view: sorted by virtual start time with parents before
// children (a parent's span id is always lower — ids are allocated under
// the recorder lock before any child can reference them).
func TestTraceCanonicalOrderUnderRounds(t *testing.T) {
	kva := &kvComp{name: "kva"}
	kvb := &kvComp{name: "kvb"}
	cfg := DaSConfig()
	cfg.Shards = 2
	cfg.MaxVirtualTime = time.Hour
	rt := NewRuntime(cfg)
	for _, c := range []Component{kva, kvb} {
		if err := rt.Register(c); err != nil {
			t.Fatal(err)
		}
	}
	rec := rt.NewTracer("audit", trace.WithCapacity(1<<12))
	err := rt.Run(func(c *Ctx) {
		done := 0
		for i, name := range []string{"kva", "kvb"} {
			name := name
			c.GoShard("dom"+name, 10+i, func(cc *Ctx) {
				defer cc.Thread().Do(func() { done++ })
				for j := 0; j < 8; j++ {
					mustCall(t, cc, name, "put", 1, "v")
					mustCall(t, cc, name, "get", 1)
				}
			})
		}
		for done < 2 {
			c.Sleep(time.Millisecond)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rt.SchedStats().Rounds == 0 {
		t.Fatal("workload formed no parallel rounds; the test exercises nothing")
	}
	evs := rec.Snapshot()
	if len(evs) == 0 {
		t.Fatal("empty trace")
	}
	byID := make(map[trace.SpanID]int, len(evs))
	for i, e := range evs {
		if i > 0 {
			prev := evs[i-1]
			if e.VirtStart < prev.VirtStart ||
				(e.VirtStart == prev.VirtStart && e.ID < prev.ID) {
				t.Fatalf("snapshot out of canonical order at %d: (%v,%d) after (%v,%d)",
					i, e.VirtStart, e.ID, prev.VirtStart, prev.ID)
			}
		}
		byID[e.ID] = i
	}
	for _, e := range evs {
		if e.Parent == 0 {
			continue
		}
		pi, ok := byID[e.Parent]
		if !ok {
			continue // parent evicted from the ring: fine, rings are bounded
		}
		p := evs[pi]
		if p.ID >= e.ID {
			t.Fatalf("child %d (%s %s) has parent id %d >= its own: causality inverted",
				e.ID, e.Kind, e.Name, p.ID)
		}
		if p.VirtStart > e.VirtStart {
			t.Fatalf("parent %d starts at %v after child %d at %v",
				p.ID, p.VirtStart, e.ID, e.VirtStart)
		}
	}
}
