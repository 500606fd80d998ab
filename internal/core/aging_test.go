package core

import (
	"strconv"
	"testing"
	"time"

	"vampos/internal/aging"
	"vampos/internal/ckpt"
	"vampos/internal/msg"
	"vampos/internal/trace"
)

// leakComp is a stateless toy component that leaks from its arena on
// every call: the canonical aging workload. A reboot cold-reinitialises
// it, scrubbing the arena — rejuvenation reclaims the leak.
type leakComp struct {
	name     string
	leakEach int64
}

func (l *leakComp) Describe() Descriptor {
	return Descriptor{Name: l.name, HeapPages: 64, DomainPages: 16}
}

func (l *leakComp) Init(*Ctx) error { return nil }

func (l *leakComp) Exports() map[string]Handler {
	return map[string]Handler{
		"work": func(ctx *Ctx, _ msg.Encoded) (msg.Encoded, error) {
			if l.leakEach > 0 {
				if _, err := ctx.Heap().Alloc(l.leakEach); err != nil {
					return nil, err
				}
			}
			return ctx.Ret(1)
		},
	}
}

// leakOnlyPolicy fires on heap growth above 50 KB per virtual second,
// far below the leaky test component's drip of about 5 MB/s.
func leakOnlyPolicy() aging.Policy {
	return aging.Policy{
		SamplePeriod: time.Millisecond,
		LeakSlope:    50_000, // bytes per virtual second
		Cooldown:     10 * time.Millisecond,
	}
}

// agingOf reads a component's aging accounting from ComponentStats; ok
// is false when the component is not a controller target.
func agingOf(rt *Runtime, name string) (aging.Stats, bool) {
	if st := statsOf(rt, name).Aging; st != nil {
		return *st, true
	}
	return aging.Stats{}, false
}

// awaitRejuvenation sleeps until the controller has rejuvenated the
// named target once, or 30 virtual seconds have passed.
func awaitRejuvenation(c *Ctx, name string) {
	for st, _ := agingOf(c.Runtime(), name); st.Rejuvenations == 0 && c.Elapsed() < 30*time.Second; st, _ = agingOf(c.Runtime(), name) {
		c.Sleep(time.Millisecond)
	}
}

// TestAgingDriverRejuvenatesLeakyComponent runs the controller over its
// default targets: every rebootable component, so the unrebootable stub
// gets no monitor, and only the leaking target is rejuvenated.
func TestAgingDriverRejuvenatesLeakyComponent(t *testing.T) {
	leaky := &leakComp{name: "leaky", leakEach: 256}
	stable := &statelessComp{name: "stable"}
	cfg := DaSConfig()
	cfg.Aging = leakOnlyPolicy()
	rt := run(t, cfg, []Component{virtioStub{}, leaky, stable}, func(c *Ctx) {
		// 256 B leaked every ~50µs of virtual time: ~5 MB/s, 100x the
		// 50 kB/s threshold. The stable component serves alongside.
		for i := 0; i < 300; i++ {
			mustCall(t, c, "leaky", "work")
			mustCall(t, c, "stable", "pid")
			c.Sleep(50 * time.Microsecond)
		}
		awaitRejuvenation(c, "leaky")
		st, ok := agingOf(c.Runtime(), "leaky")
		if !ok || st.Rejuvenations == 0 {
			t.Fatalf("controller never rejuvenated: leaky monitor stats = %+v ok=%v", st, ok)
		}
		if st.LastCause != "leak-slope" {
			t.Fatalf("rejuvenation cause = %q, want leak-slope", st.LastCause)
		}
		cs, _ := c.Runtime().ComponentStats("leaky")
		// The reboot scrubbed the arena: far less than the ~77 kB leaked
		// across the run remains allocated.
		if cs.Heap.AllocatedBytes >= 256*300 {
			t.Fatalf("arena still holds %d leaked bytes", cs.Heap.AllocatedBytes)
		}
	})
	if _, ok := agingOf(rt, "virtio"); ok {
		t.Fatal("the unrebootable stub is a default aging target")
	}
	if _, ok := agingOf(rt, "stable"); !ok {
		t.Fatal("the rebootable stable component is not a default aging target")
	}
	var rejuv int
	for _, rec := range rt.Reboots() {
		if rec.Reason != "rejuvenation" {
			t.Fatalf("unexpected reboot reason %q", rec.Reason)
		}
		if rec.Group == "stable" {
			t.Fatal("healthy component was rejuvenated")
		}
		rejuv++
	}
	if rejuv == 0 {
		t.Fatal("no rejuvenation reboot recorded")
	}
	if cs, _ := rt.ComponentStats("stable"); cs.Reboots != 0 {
		t.Fatalf("stable component rebooted %d times", cs.Reboots)
	}
}

// TestAgingRejuvenatesInBootOrder: two targets that leak at the same
// rate become due in one sweep, and the controller rejuvenates them in
// boot order — providers before dependents — although the dependent
// leaks first in every step.
func TestAgingRejuvenatesInBootOrder(t *testing.T) {
	pol := leakOnlyPolicy()
	pol.Cooldown = time.Hour // one rejuvenation each
	cfg := DaSConfig()
	cfg.Aging = pol
	provider := &leakComp{name: "provider", leakEach: 256}
	dependent := &leakComp{name: "dependent", leakEach: 256}
	rt := run(t, cfg, []Component{provider, dependent}, func(c *Ctx) {
		rejuvenated := func(name string) bool {
			st, _ := agingOf(c.Runtime(), name)
			return st.Rejuvenations > 0
		}
		for !(rejuvenated("provider") && rejuvenated("dependent")) && c.Elapsed() < 30*time.Second {
			mustCall(t, c, "dependent", "work")
			mustCall(t, c, "provider", "work")
			c.Sleep(50 * time.Microsecond)
		}
	})
	var order []string
	for _, rec := range rt.Reboots() {
		order = append(order, rec.Group)
	}
	if len(order) != 2 || order[0] != "provider" || order[1] != "dependent" {
		t.Fatalf("rejuvenation order = %v, want [provider dependent]", order)
	}
	// Each monitor's cooldown starts when its own rejuvenation ends: the
	// two lie less than a sample period apart, so one sweep fired both.
	p, _ := agingOf(rt, "provider")
	d, _ := agingOf(rt, "dependent")
	if gap := d.CooldownUntil - p.CooldownUntil; gap <= 0 || gap >= pol.SamplePeriod {
		t.Fatalf("rejuvenations %v apart, want both inside one %v sweep", gap, pol.SamplePeriod)
	}
}

func TestConfigAgingAutoStartsDriver(t *testing.T) {
	leaky := &leakComp{name: "leaky", leakEach: 256}
	cfg := DaSConfig()
	cfg.Aging = leakOnlyPolicy()
	cfg.AgingTargets = []string{"leaky"}
	rt := run(t, cfg, []Component{leaky, &statelessComp{name: "stable"}}, func(c *Ctx) {
		if got := c.Runtime().agingTargets; len(got) != 1 || got[0].desc.Name != "leaky" {
			t.Fatalf("Boot did not start the controller over [leaky]: targets %d", len(got))
		}
		for i := 0; i < 300; i++ {
			mustCall(t, c, "leaky", "work")
			c.Sleep(50 * time.Microsecond)
		}
		awaitRejuvenation(c, "leaky")
	})
	st, ok := agingOf(rt, "leaky")
	if !ok || st.Rejuvenations == 0 {
		t.Fatalf("AgingStats(leaky) = %+v ok=%v, want rejuvenations", st, ok)
	}
	if _, ok := agingOf(rt, "stable"); ok {
		t.Fatal("untargeted component has aging stats")
	}
}

func TestVanillaConfigIgnoresAging(t *testing.T) {
	cfg := VanillaConfig()
	cfg.Aging = aging.Policy{SamplePeriod: 50 * time.Millisecond}
	rt := run(t, cfg, []Component{&kvComp{name: "kv"}}, func(c *Ctx) {
		mustCall(t, c, "kv", "put", 1, "1")
	})
	if _, ok := agingOf(rt, "kv"); ok || rt.agingTargets != nil {
		t.Fatal("vanilla runtime started an aging controller")
	}
}

// TestRejuvenateCheckpointAware shows the checkpoint-aware path: the
// rejuvenation reboot restores from the last (pre-aging) image and
// replays the full retained tail — shedding everything accumulated
// since that image — then re-checkpoints the clean component, so the
// NEXT reboot replays a near-empty tail. A pre-reboot checkpoint would
// instead image the aged arena and resurrect it on restore.
func TestRejuvenateCheckpointAware(t *testing.T) {
	kv := &kvComp{name: "kv", checkpointed: true}
	rt := run(t, DaSConfig(), []Component{kv}, func(c *Ctx) {
		for i := 0; i < 40; i++ {
			mustCall(t, c, "kv", "put", i, "v")
		}
		if n := statsOf(c.Runtime(), "kv").LogLen; n < 40 {
			t.Fatalf("retained log = %d, want >= 40", n)
		}
		if err := c.Rejuvenate("kv"); err != nil {
			t.Fatalf("Rejuvenate: %v", err)
		}
		cps := statsOf(c.Runtime(), "kv").Ckpt
		if cps.CheckpointCount == 0 {
			t.Fatal("rejuvenation took no post-reboot checkpoint")
		}
		// The post-reboot checkpoint truncated the replayed prefix: the
		// next recovery starts from the clean image, near-empty tail.
		if n := statsOf(c.Runtime(), "kv").LogLen; n > 2 {
			t.Fatalf("retained log after rejuvenation = %d, want near-empty", n)
		}
		if err := c.Reboot("kv"); err != nil {
			t.Fatalf("Reboot: %v", err)
		}
		// All state survived both reboots.
		for i := 0; i < 40; i++ {
			if v, _ := mustCall(t, c, "kv", "get", i).Str(0); v != "v" {
				t.Fatalf("k%d lost after rejuvenation", i)
			}
		}
	})
	recs := rt.Reboots()
	if len(recs) != 2 {
		t.Fatalf("reboot records = %d, want 2", len(recs))
	}
	if recs[0].Reason != "rejuvenation" || recs[1].Reason != "proactive" {
		t.Fatalf("reasons = %q, %q", recs[0].Reason, recs[1].Reason)
	}
	if recs[0].ReplayedEntries == 0 {
		t.Fatal("rejuvenation replayed nothing: the aged tail was not re-executed from the clean image")
	}
	if recs[1].ReplayedEntries != 0 {
		t.Fatalf("post-rejuvenation reboot replayed %d entries, want 0 (clean image + truncated log)", recs[1].ReplayedEntries)
	}
}

// TestCadenceCheckpointGatedWhileAging: the checkpoint cadence must not
// image a component the aging controller has latched over threshold —
// the image would bake the leak into every later restore, and once the
// log is truncated against it the pre-aging state is unrecoverable. The
// gate holds while the monitor is Hot AND through the post-rejuvenation
// cooldown: the monitor's window resets on rejuvenation, so the latch
// needs a full window of samples to re-engage, and continuous aging
// must not slip a checkpoint into that blind interval. The explicit
// Ctx.Checkpoint path stays ungated — it is how Rejuvenate re-images
// the clean component right after the reboot, while the latch is still
// set. The controller is left inert (huge sample period) and the test
// drives the monitor by hand, so every transition is deterministic.
func TestCadenceCheckpointGatedWhileAging(t *testing.T) {
	kv := &kvComp{name: "kv", checkpointed: true}
	cfg := DaSConfig()
	cfg.Ckpt = ckpt.Policy{EveryCalls: 2}
	pol := leakOnlyPolicy()
	pol.SamplePeriod = time.Hour
	pol.Cooldown = 50 * time.Millisecond
	cfg.Aging = pol
	cfg.AgingTargets = []string{"kv"}
	run(t, cfg, []Component{kv}, func(c *Ctx) {
		mon := c.Runtime().comps["kv"].aging
		if mon == nil {
			t.Fatal("Boot did not start the aging controller")
		}
		puts := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				mustCall(t, c, "kv", "put", i, strconv.Itoa(i))
			}
		}
		count := func() uint64 {
			return statsOf(c.Runtime(), "kv").Ckpt.CheckpointCount
		}
		puts(0, 8)
		healthy := count()
		if healthy == 0 {
			t.Fatal("cadence never checkpointed the healthy component")
		}
		// Latch the monitor: a window of samples whose leak slope is far
		// over the 50 kB/s threshold.
		for i := 0; i < 4; i++ {
			mon.Observe(aging.Sample{
				At:            c.Elapsed() + time.Duration(i)*time.Millisecond,
				HeapAllocated: int64(i) * (1 << 20),
			})
		}
		if st, _ := agingOf(c.Runtime(), "kv"); !st.Hot {
			t.Fatalf("monitor did not latch: %+v", st)
		}
		puts(8, 16)
		if got := count(); got != healthy {
			t.Fatalf("cadence checkpointed a Hot component: %d -> %d", healthy, got)
		}
		// Rejuvenate's post-reboot capture path is not gated.
		if err := c.Checkpoint("kv"); err != nil {
			t.Fatalf("explicit checkpoint while Hot: %v", err)
		}
		manual := count()
		if manual != healthy+1 {
			t.Fatalf("explicit checkpoint not taken: %d -> %d", healthy, manual)
		}
		// A successful rejuvenation releases the latch and starts the
		// cooldown; the gate must hold until the cooldown lapses.
		mon.NoteRejuvenation(c.Elapsed(), true)
		if st, _ := agingOf(c.Runtime(), "kv"); st.Hot || st.CooldownUntil <= c.Elapsed() {
			t.Fatalf("NoteRejuvenation did not release the latch into cooldown: %+v", st)
		}
		puts(16, 24)
		if got := count(); got != manual {
			t.Fatalf("cadence checkpointed during cooldown: %d -> %d", manual, got)
		}
		c.Sleep(pol.Cooldown)
		puts(24, 32)
		if got := count(); got <= manual {
			t.Fatal("cadence never resumed after the cooldown lapsed")
		}
	})
}

func TestRejuvenateEmitsTraceSpan(t *testing.T) {
	kv := &kvComp{name: "kv", checkpointed: true}
	cfg := DaSConfig()
	cfg.MaxVirtualTime = time.Hour
	rt := NewRuntime(cfg)
	if err := rt.Register(kv); err != nil {
		t.Fatal(err)
	}
	rec := rt.NewTracer("test/rejuv")
	err := rt.Run(func(c *Ctx) {
		mustCall(t, c, "kv", "put", 1, "1")
		if err := c.Rejuvenate("kv"); err != nil {
			t.Fatalf("Rejuvenate: %v", err)
		}
		if err := c.Rejuvenate("nope"); err == nil {
			t.Fatal("rejuvenated unknown component")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var rejuv *trace.Event
	var reboot *trace.Event
	for _, e := range rec.Snapshot() {
		e := e
		switch e.Kind {
		case trace.KindRejuv:
			rejuv = &e
		case trace.KindReboot:
			reboot = &e
		}
	}
	if rejuv == nil {
		t.Fatal("no KindRejuv span recorded")
	}
	if rejuv.Open || rejuv.Detail != "ok" {
		t.Fatalf("rejuv span = %+v, want closed ok", rejuv)
	}
	if reboot == nil || reboot.Parent != rejuv.ID {
		t.Fatalf("reboot span not parented under rejuvenation: %+v", reboot)
	}
	if reboot.Name != "rejuvenation" {
		t.Fatalf("reboot span reason = %q", reboot.Name)
	}
}
