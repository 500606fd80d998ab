package core

import (
	"errors"
	"testing"
	"time"

	"vampos/internal/ckpt"
	"vampos/internal/mem"
	"vampos/internal/msg"
	"vampos/internal/trace"
)

// sessKV is kvComp made session-bearing: every key is a session (put
// opens "k:<key>" and a fault in it is the key's, del closes it), a
// session's live state is its map entry, and evicting it can be made to
// dawdle or to refuse.
type sessKV struct {
	kvComp
	refuse     bool
	evictDelay time.Duration
}

func (s *sessKV) EvictSession(ctx *Ctx, key int) error {
	ctx.Sleep(s.evictDelay)
	if s.refuse {
		return errors.New("sessKV refuses eviction")
	}
	delete(s.data, key)
	return nil
}

// assertPhasesTile checks the trace contract the phase-transition helper
// owns: no recovery span and no phase is left open, and the closed phases
// of every recovery span sum to the span.
func assertPhasesTile(t *testing.T, rec *trace.Recorder) {
	t.Helper()
	evs := rec.Snapshot()
	spans := 0
	for _, sp := range evs {
		if sp.Kind != trace.KindReboot && sp.Kind != trace.KindMicroreboot {
			continue
		}
		spans++
		if sp.Open {
			t.Errorf("%s span %q left open", sp.Kind, sp.Name)
		}
		var sum time.Duration
		for _, ph := range evs {
			if ph.Kind != trace.KindPhase || ph.Parent != sp.ID {
				continue
			}
			if ph.Open {
				t.Errorf("phase %q of %s %q left open", ph.Name, sp.Kind, sp.Name)
			}
			sum += ph.VirtDuration()
		}
		if sum != sp.VirtDuration() {
			t.Errorf("phases of %s %q sum to %v, span is %v", sp.Kind, sp.Name, sum, sp.VirtDuration())
		}
	}
	if spans == 0 {
		t.Error("no recovery span in the trace")
	}
}

// dawdler's op sleeps before its outbound call, so a replay of it yields
// mid-restore; with flip set the replay issues a call the log cannot
// answer, once.
type dawdler struct{ flip bool }

func (d *dawdler) Describe() Descriptor {
	return Descriptor{Name: "dawdler", Stateful: true, HeapPages: 4, DomainPages: 8}
}
func (d *dawdler) Init(*Ctx) error { return nil }
func (d *dawdler) Exports() map[string]Handler {
	return map[string]Handler{
		"op": func(ctx *Ctx, args msg.Encoded) (msg.Encoded, error) {
			ctx.Sleep(200 * time.Microsecond)
			fn := "echo"
			if d.flip {
				d.flip, fn = false, "other"
			}
			_, _ = ctx.Call("backend", fn, "x")
			return nil, nil
		},
		"crash": func(ctx *Ctx, _ msg.Encoded) (msg.Encoded, error) { panic("dawdler: crash") },
	}
}
func (d *dawdler) LogPolicies() (*msg.Namespace, map[string]LogPolicy) {
	return nil, map[string]LogPolicy{"op": {Class: msg.ClassDurable}}
}

// TestRebootOfGroupThatFailStoppedMeanwhile: a proactive reboot issued
// while a crash recovery is in flight must notice that the recovery
// fail-stopped the group, not reboot the dead group behind it. The second
// restore would succeed here (the divergence fires once), so before the
// wait re-checked, the dead group got a RebootRecord.
func TestRebootOfGroupThatFailStoppedMeanwhile(t *testing.T) {
	d := &dawdler{}
	rt := run(t, DaSConfig(), []Component{&countingEcho{name: "backend"}, d}, func(c *Ctx) {
		mustCall(t, c, "dawdler", "op")
		d.flip = true
		g := c.rt.comps["dawdler"].group
		var crashErr error
		crashed := false
		c.Go("crasher", func(cc *Ctx) {
			_, crashErr = cc.Call("dawdler", "crash")
			crashed = true
		})
		for !g.rebooting {
			if g.failedTwice {
				t.Fatal("recovery was over before the reboot could be issued behind it")
			}
			c.Sleep(10 * time.Microsecond)
		}
		if err := c.Reboot("dawdler"); !errors.Is(err, ErrComponentFailed) {
			t.Errorf("Reboot behind a failing recovery = %v, want ErrComponentFailed", err)
		}
		for !crashed {
			c.Sleep(10 * time.Microsecond)
		}
		if !errors.Is(crashErr, ErrComponentFailed) {
			t.Errorf("crashed call = %v, want ErrComponentFailed", crashErr)
		}
	})
	if n := len(rt.Reboots()); n != 0 {
		t.Errorf("%d reboot record(s) for a fail-stopped group: %+v", n, rt.Reboots())
	}
	if n := rt.Stats().FailedRestores; n != 1 {
		t.Errorf("FailedRestores = %d, want 1 (the dead group was restored again)", n)
	}
}

// TestMicrorebootOutcomeIsTheCallersOwn: a proactive session microreboot
// that escalates must say so even when another component's microreboot
// completes while it is in flight — the global record count moves, the
// caller's own recovery did not stay at rung 1.
func TestMicrorebootOutcomeIsTheCallersOwn(t *testing.T) {
	a := &sessKV{refuse: true, evictDelay: 300 * time.Microsecond}
	a.name = "a"
	b := &sessKV{}
	b.name = "b"
	cfg := DaSConfig()
	cfg.Microreboot = true
	rt := run(t, cfg, []Component{a, b}, func(c *Ctx) {
		mustCall(t, c, "a", "put", 1, "1")
		mustCall(t, c, "b", "put", 2, "2")
		ga := c.rt.comps["a"].group
		var otherErr error
		otherDone := false
		c.Go("other", func(cc *Ctx) {
			for !ga.rebooting {
				cc.Sleep(10 * time.Microsecond)
			}
			otherErr = cc.MicrorebootSession("b", "k:2")
			otherDone = true
		})
		err := c.MicrorebootSession("a", "k:1")
		if !otherDone || otherErr != nil {
			t.Fatalf("b's microreboot did not complete inside a's (done=%v err=%v): the test exercises nothing", otherDone, otherErr)
		}
		if !errors.Is(err, ErrMicrorebootEscalated) {
			t.Errorf("escalated microreboot of a = %v, want ErrMicrorebootEscalated", err)
		}
	})
	if st := rt.Stats(); st.Microreboots != 1 || st.MicroEscalates != 1 {
		t.Errorf("microreboots=%d escalations=%d, want 1 and 1", st.Microreboots, st.MicroEscalates)
	}
}

// TestSessionHealsAtRungOneAfterEscalation: once an escalated session
// microreboot's component reboot succeeds, the log still holds the
// session's live opener, so a later microreboot of it — or of any other
// session the reboot carried along — heals at rung 1 again.
func TestSessionHealsAtRungOneAfterEscalation(t *testing.T) {
	kv := &sessKV{refuse: true}
	kv.name, kv.checkpointed = "kv", true
	cfg := DaSConfig()
	cfg.Microreboot = true
	rt := run(t, cfg, []Component{kv}, func(c *Ctx) {
		mustCall(t, c, "kv", "put", 1, "1")
		mustCall(t, c, "kv", "put", 2, "2")
		if err := c.MicrorebootSession("kv", "k:1"); !errors.Is(err, ErrMicrorebootEscalated) {
			t.Fatalf("refused microreboot = %v, want ErrMicrorebootEscalated", err)
		}
		kv.refuse = false
		for _, session := range []string{"k:1", "k:2"} {
			if err := c.MicrorebootSession("kv", session); err != nil {
				t.Fatalf("MicrorebootSession(%s) after the component reboot: %v", session, err)
			}
		}
		for key, want := range map[int]string{1: "1", 2: "2"} {
			if got, err := mustCall(t, c, "kv", "get", key).Str(0); err != nil || got != want {
				t.Errorf("get %d = %q, %v; want %q", key, got, err, want)
			}
		}
	})
	if n := len(rt.Reboots()); n != 1 {
		t.Errorf("component reboots = %d, want 1 (the escalation's only)", n)
	}
	if n := len(rt.Microreboots()); n != 2 {
		t.Errorf("microreboots = %d, want 2 (both heal at rung 1)", n)
	}
}

// TestRecoveryStageSelection: each flavour of recovery is a row — which
// image every member restored from and what the replay stage was handed.
// These are the decisions the pipeline makes from the recovery value and
// the members' state; nothing else distinguishes the flavours.
func TestRecoveryStageSelection(t *testing.T) {
	type slice struct {
		first, last            uint64
		live, archive, session int
	}
	type want struct {
		image map[string]imageChoice
		// postInit: the latest image restored is still the boot-time one.
		// epochSeq: the epoch seq a rollback landed on (0 is post-init's).
		postInit bool
		epochSeq uint64
		slice    slice
		records  int // RebootRecords + MicrorebootRecords
	}
	put := func(t *testing.T, c *Ctx, comp string, keys ...int) {
		for _, k := range keys {
			mustCall(t, c, comp, "put", k, "v")
		}
	}
	rows := []struct {
		name  string
		cfg   func() Config
		comps func() []Component
		run   func(t *testing.T, c *Ctx)
		want  want
	}{
		{name: "crash reboot, no image", cfg: DaSConfig,
			comps: func() []Component { return []Component{&kvComp{name: "kv", panicOn: 9}} },
			run: func(t *testing.T, c *Ctx) {
				put(t, c, "kv", 1, 2, 9)
			},
			want: want{image: map[string]imageChoice{"kv": imageCold}, slice: slice{first: 1, last: 2, live: 2}, records: 1}},
		{name: "hang reboot, post-init image", cfg: DaSConfig,
			comps: func() []Component { return []Component{&kvComp{name: "kv", checkpointed: true, hangOn: 8}} },
			run: func(t *testing.T, c *Ctx) {
				put(t, c, "kv", 1, 8)
			},
			want: want{image: map[string]imageChoice{"kv": imageLatest}, postInit: true, slice: slice{first: 1, last: 1, live: 1}, records: 1}},
		{name: "proactive reboot, stateless", cfg: DaSConfig,
			comps: func() []Component { return []Component{&statelessComp{name: "stateless"}} },
			run: func(t *testing.T, c *Ctx) {
				if err := c.Reboot("stateless"); err != nil {
					t.Fatal(err)
				}
			},
			want: want{image: map[string]imageChoice{"stateless": imageCold}, records: 1}},
		{name: "rejuvenation, latest image", cfg: func() Config {
			cfg := DaSConfig()
			cfg.Ckpt = ckpt.Policy{EveryCalls: 2}
			return cfg
		},
			comps: func() []Component { return []Component{&kvComp{name: "kv", checkpointed: true}} },
			run: func(t *testing.T, c *Ctx) {
				put(t, c, "kv", 1, 2, 3) // image after 2: 3 is the tail
				if err := c.Rejuvenate("kv"); err != nil {
					t.Fatal(err)
				}
			},
			want: want{image: map[string]imageChoice{"kv": imageLatest}, slice: slice{first: 3, last: 3, live: 1}, records: 1}},
		{name: "merged group", cfg: func() Config {
			cfg := DaSConfig()
			cfg.Merges = [][]string{{"ka", "kb"}}
			return cfg
		},
			comps: func() []Component {
				return []Component{&kvComp{name: "ka", checkpointed: true}, &kvComp{name: "kb"}}
			},
			run: func(t *testing.T, c *Ctx) {
				put(t, c, "ka", 1)
				put(t, c, "kb", 2)
				put(t, c, "ka", 3)
				if err := c.Reboot("kb"); err != nil {
					t.Fatal(err)
				}
			},
			want: want{image: map[string]imageChoice{"ka": imageLatest, "kb": imageCold}, postInit: true,
				slice: slice{first: 1, last: 3, live: 3}, records: 1}},
		{name: "seal-break rollback", cfg: func() Config {
			cfg := defenseConfig()
			cfg.Defense.SealEveryCalls = 4
			cfg.Ckpt = ckpt.Policy{EveryCalls: 3}
			return cfg
		},
			comps: func() []Component { return []Component{&kvComp{name: "kv", checkpointed: true}} },
			run: func(t *testing.T, c *Ctx) {
				// Seal after put1, image after put3, clean verification after
				// put5: the watermark is 6. The tamper lands before put6, whose
				// image is quarantined; put9's verification breaks the seal.
				put(t, c, "kv", 1, 2, 3, 4, 5)
				tc := c.rt.comps["kv"]
				if err := c.rt.memry.HostWrite(tc.heapBase+mem.PageSize, []byte{0xde, 0xad}); err != nil {
					t.Fatal(err)
				}
				put(t, c, "kv", 6, 7, 8, 9)
				mustCall(t, c, "kv", "get", 1) // queues behind the tamper reboot
			},
			// The image after put3 predates the watermark; puts 4 and 5 lie
			// between it and the watermark and only the archive holds them.
			want: want{image: map[string]imageChoice{"kv": imagePreWatermark}, epochSeq: 3, slice: slice{first: 4, last: 5, archive: 2}, records: 1}},
		{name: "divergence rollback retry", cfg: func() Config {
			cfg := defenseConfig()
			return cfg
		},
			comps: func() []Component { return []Component{&nondetComp{name: "nd"}} },
			run: func(t *testing.T, c *Ctx) {
				mustCall(t, c, "nd", "bump")
				mustCall(t, c, "nd", "bump")
				c.rt.comps["nd"].comp.(*nondetComp).crash = true
				mustCall(t, c, "nd", "bump")
			},
			// The retry drops the suspect tail from the diverging seq on: the
			// post-init image and nothing to replay.
			want: want{image: map[string]imageChoice{"nd": imagePreWatermark}, epochSeq: 0, records: 1}},
		{name: "session microreboot", cfg: func() Config {
			cfg := DaSConfig()
			cfg.Microreboot = true
			return cfg
		},
			comps: func() []Component {
				s := &sessKV{}
				s.name, s.checkpointed = "kv", true
				return []Component{s}
			},
			run: func(t *testing.T, c *Ctx) {
				put(t, c, "kv", 1, 2, 1)
				if err := c.MicrorebootSession("kv", "k:1"); err != nil {
					t.Fatal(err)
				}
			},
			want: want{image: map[string]imageChoice{"kv": imageNone}, slice: slice{first: 1, last: 3, session: 2}, records: 1}},
		{name: "microreboot escalated", cfg: func() Config {
			cfg := DaSConfig()
			cfg.Microreboot = true
			return cfg
		},
			comps: func() []Component {
				s := &sessKV{refuse: true}
				s.name, s.checkpointed = "kv", true
				return []Component{s}
			},
			run: func(t *testing.T, c *Ctx) {
				put(t, c, "kv", 1, 2)
				if err := c.MicrorebootSession("kv", "k:1"); !errors.Is(err, ErrMicrorebootEscalated) {
					t.Fatalf("MicrorebootSession = %v, want ErrMicrorebootEscalated", err)
				}
			},
			want: want{image: map[string]imageChoice{"kv": imageLatest}, postInit: true, slice: slice{first: 1, last: 2, live: 2}, records: 1}},
		{name: "version switch", cfg: DaSConfig,
			comps: func() []Component { return []Component{newFlakyKV("kv", 13)} },
			run: func(t *testing.T, c *Ctx) {
				if err := c.rt.RegisterFallback("kv", newFixedKV("kv")); err != nil {
					t.Fatal(err)
				}
				put(t, c, "kv", 1, 2, 13)
			},
			// Two crash reboots of the buggy version, then the alternate
			// cold-boots and replays the same two records.
			want: want{image: map[string]imageChoice{"kv": imageCold}, slice: slice{first: 1, last: 2, live: 2}, records: 3}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			postInit := map[string]*checkpoint{}
			rt := run(t, row.cfg(), row.comps(), func(c *Ctx) {
				for name, tc := range c.rt.comps {
					postInit[name] = tc.images.current()
				}
				row.run(t, c)
			})
			if n := len(rt.Reboots()) + len(rt.Microreboots()); n != row.want.records {
				t.Fatalf("%d recovery records, want %d: %+v %+v", n, row.want.records, rt.Reboots(), rt.Microreboots())
			}
			var r *recovery
			for name, img := range row.want.image {
				tc := rt.comps[name]
				r = tc.group.rec
				if names := []string{"none", "cold", "latest", "pre-watermark"}; tc.imageFrom != img {
					t.Errorf("%s restored from image: %s, want %s", name, names[tc.imageFrom], names[img])
				}
				if got := tc.images.current() == postInit[name]; img == imageLatest && got != row.want.postInit {
					t.Errorf("%s restored the post-init image: %v, want %v", name, got, row.want.postInit)
				}
				// A rollback re-squares the member with a fresh capture, so which
				// image it landed on is read from the record.
				if img == imagePreWatermark && r.pass.rec.RestoredEpochSeq != row.want.epochSeq {
					t.Errorf("%s rolled back to epoch seq %d, want %d", name, r.pass.rec.RestoredEpochSeq, row.want.epochSeq)
				}
			}
			got := slice(r.pass.slice)
			if got != row.want.slice {
				t.Errorf("replay slice = %+v, want %+v", got, row.want.slice)
			}
			if n := got.live + got.archive + got.session; r.pass.rec.ReplayedEntries != n {
				t.Errorf("replayed %d of the %d records selected", r.pass.rec.ReplayedEntries, n)
			}
		})
	}
}

// namelessKV reads session slots but names no namespace to mint them in.
type namelessKV struct{ kvComp }

func (k *namelessKV) LogPolicies() (*msg.Namespace, map[string]LogPolicy) {
	_, rows := k.kvComp.LogPolicies()
	return nil, rows
}

// TestSessionTableNeedsANamespace: a component whose rows read a session
// slot without naming the namespace the sessions live in is refused at
// registration, as a fallback too, instead of failing at its first
// logged call.
func TestSessionTableNeedsANamespace(t *testing.T) {
	bad := &namelessKV{kvComp{name: "kv"}}
	if err := NewRuntime(DaSConfig()).Register(bad); err == nil {
		t.Error("Register accepted a session table without a namespace")
	}
	rt := NewRuntime(DaSConfig())
	if err := rt.Register(&kvComp{name: "kv"}); err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterFallback("kv", bad); err == nil {
		t.Error("RegisterFallback accepted a session table without a namespace")
	}
}
