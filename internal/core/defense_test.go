package core

import (
	"bytes"
	"errors"
	"maps"
	"strconv"
	"strings"
	"testing"
	"time"

	"vampos/internal/ckpt"
	"vampos/internal/defense"
	"vampos/internal/mem"
	"vampos/internal/msg"
)

func defenseConfig() Config {
	cfg := DaSConfig()
	cfg.Defense = defense.Policy{Enabled: true}
	return cfg
}

// TestTamperDetectionAndTaintRollback: a host-side write into a durable
// arena breaks the next seal verification; recovery quarantines every
// image the watermark poisons, restores one that strictly predates it,
// and replays only the un-tainted tail — calls that ran against the
// tampered arena are discarded, not replayed.
func TestTamperDetectionAndTaintRollback(t *testing.T) {
	kv := &kvComp{name: "kv", checkpointed: true}
	cfg := defenseConfig()
	cfg.Defense.SealEveryCalls = 4
	cfg.Ckpt = ckpt.Policy{EveryCalls: 2}
	rt := run(t, cfg, []Component{kv}, func(c *Ctx) {
		// put1 captures the initial seal; put2 lands a cadence checkpoint.
		mustCall(t, c, "kv", "put", 1, "1")
		mustCall(t, c, "kv", "put", 2, "2")
		// Host-side tamper between calls: flip bytes deep in kv's arena.
		tc := c.rt.comps["kv"]
		if err := c.rt.memry.HostWrite(tc.heapBase+mem.PageSize, []byte{0xde, 0xad}); err != nil {
			t.Fatal(err)
		}
		// put4 checkpoints the now-tampered arena; put5's verification
		// (sealCalls reaches 4) breaks the seal and reboots kv.
		mustCall(t, c, "kv", "put", 3, "3")
		mustCall(t, c, "kv", "put", 4, "4")
		mustCall(t, c, "kv", "put", 5, "5")
		// Queued during the tamper reboot; answered from the rolled-back
		// store. Only put1 predates the watermark, so only k1 survives —
		// the post-seal calls ran against (or after) a tampered arena and
		// taint-aware recovery refuses to replay them.
		rets := mustCall(t, c, "kv", "get", 1)
		if v, _ := rets.Str(0); v != "1" {
			t.Errorf("k1 = %q after taint rollback, want 1", v)
		}
		// Image-history discipline, read before further cadence checkpoints
		// evict the quarantined entries from the depth-bounded ring.
		var quarantined, clean int
		for _, m := range statsOf(c.rt, "kv").Images {
			if m.Quarantined {
				quarantined++
			} else {
				clean++
			}
		}
		if quarantined != 2 || clean == 0 {
			t.Errorf("image metas %+v: want 2 quarantined and >=1 clean", statsOf(c.rt, "kv").Images)
		}
		for k := 2; k <= 5; k++ {
			if _, err := c.Call("kv", "get", k); !errors.Is(err, ENOENT) {
				t.Errorf("tainted key %d survived rollback (err=%v)", k, err)
			}
		}
		// The component serves normally in its new incarnation.
		mustCall(t, c, "kv", "put", 6, "6")
	})
	st := rt.Stats()
	if st.TamperDetections != 1 {
		t.Fatalf("TamperDetections = %d, want 1", st.TamperDetections)
	}
	if st.TaintRollbacks != 1 {
		t.Fatalf("TaintRollbacks = %d, want 1", st.TaintRollbacks)
	}
	if st.QuarantinedImages != 2 {
		t.Fatalf("QuarantinedImages = %d, want 2 (the put2 and put4 images)", st.QuarantinedImages)
	}
	recs := rt.Reboots()
	if len(recs) != 1 {
		t.Fatalf("reboots = %d, want 1", len(recs))
	}
	rec := recs[0]
	if !strings.Contains(rec.Reason, "tamper") {
		t.Fatalf("reboot reason = %q, want tamper", rec.Reason)
	}
	if rec.TaintWatermark == 0 || rec.RestoredEpochSeq >= rec.TaintWatermark {
		t.Fatalf("restored epoch seq %d does not strictly predate watermark %d",
			rec.RestoredEpochSeq, rec.TaintWatermark)
	}
	if rec.QuarantinedImages != 2 {
		t.Fatalf("record quarantined = %d, want 2", rec.QuarantinedImages)
	}
	if rec.ReplayedEntries != 1 {
		t.Fatalf("replayed %d entries, want 1 (only the pre-watermark put, from the archive)", rec.ReplayedEntries)
	}
	if fp := statsOf(rt, "kv").LayoutFingerprint; fp == 0 {
		t.Fatal("layout fingerprint not stamped after defense reboot")
	}
	if len(rec.LayoutFingerprints) != 1 || rec.LayoutFingerprints[0] != statsOf(rt, "kv").LayoutFingerprint {
		t.Fatalf("record fingerprints %v disagree with live fingerprint %d",
			rec.LayoutFingerprints, statsOf(rt, "kv").LayoutFingerprint)
	}
}

// TestRollbackRewindsEpochSeq: a taint rollback lands on an image older
// than the log's latest truncation, so the log's epoch seq must come back
// down to what the installed image covers — the post-rollback capture's —
// instead of keeping the quarantined image's coverage. A checkpoint and a
// second, ordinary crash then restore that capture's successor and replay
// exactly the call made after it.
func TestRollbackRewindsEpochSeq(t *testing.T) {
	kv := &kvComp{name: "kv", checkpointed: true}
	cfg := defenseConfig()
	cfg.Defense.SealEveryCalls = 4
	cfg.Ckpt = ckpt.Policy{EveryCalls: 2}
	rt := run(t, cfg, []Component{kv}, func(c *Ctx) {
		// The attack of TestTamperDetectionAndTaintRollback: put4's image
		// is the latest truncation, and put5's verification rolls back to
		// the image before the seal watermark.
		mustCall(t, c, "kv", "put", 1, "1")
		mustCall(t, c, "kv", "put", 2, "2")
		tc := c.rt.comps["kv"]
		if err := c.rt.memry.HostWrite(tc.heapBase+mem.PageSize, []byte{0xde, 0xad}); err != nil {
			t.Fatal(err)
		}
		mustCall(t, c, "kv", "put", 3, "3")
		mustCall(t, c, "kv", "put", 4, "4")
		lastTrunc := tc.domain.Log().EpochSeq()
		mustCall(t, c, "kv", "put", 5, "5")
		// Queued behind the tamper reboot.
		mustCall(t, c, "kv", "get", 1)
		metas := statsOf(c.rt, "kv").Images
		installed := metas[len(metas)-1]
		if installed.Quarantined || installed.EpochSeq >= lastTrunc {
			t.Fatalf("image metas %+v: want a clean post-rollback capture below the last truncation seq %d", metas, lastTrunc)
		}
		if got := tc.domain.Log().EpochSeq(); got != installed.EpochSeq {
			t.Fatalf("log epoch seq %d after the rollback, want %d: the installed image's coverage (last truncation was %d)",
				got, installed.EpochSeq, lastTrunc)
		}
		// A checkpoint, one more call, then an ordinary crash: recovery
		// restores the checkpoint and replays only put6.
		if err := c.Checkpoint("kv"); err != nil {
			t.Fatal(err)
		}
		if got, metas := tc.domain.Log().EpochSeq(), statsOf(c.rt, "kv").Images; got != metas[len(metas)-1].EpochSeq {
			t.Fatalf("log epoch seq %d after the checkpoint, want the new image's %d", got, metas[len(metas)-1].EpochSeq)
		}
		mustCall(t, c, "kv", "put", 6, "6")
		if err := c.rt.ArmFault("kv", "get", FaultCrash); err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{6, 1} {
			rets := mustCall(t, c, "kv", "get", k)
			if v, _ := rets.Str(0); v != strconv.Itoa(k) {
				t.Errorf("%d = %q after the second recovery, want %d", k, v, k)
			}
		}
		for k := 2; k <= 5; k++ {
			if _, err := c.Call("kv", "get", k); !errors.Is(err, ENOENT) {
				t.Errorf("tainted key %d came back in the second recovery (err=%v)", k, err)
			}
		}
	})
	recs := rt.Reboots()
	if len(recs) != 2 {
		t.Fatalf("reboots = %d, want the rollback and the crash reboot", len(recs))
	}
	if r := recs[1]; r.TaintWatermark != 0 || r.ReplayedEntries != 1 {
		t.Fatalf("second recovery %+v: want an untainted restore replaying 1 entry (put6)", r)
	}
}

// TestDivergenceTaintRetry: with defense enabled, a replay return
// divergence is treated as corruption evidence — the diverging seq
// becomes the taint watermark and the restore retries below it instead
// of fail-stopping the group.
func TestDivergenceTaintRetry(t *testing.T) {
	d := &nondetComp{name: "nd"}
	cfg := defenseConfig()
	cfg.MaxVirtualTime = time.Hour
	rt := NewRuntime(cfg)
	rec := rt.NewTracer("divergence-retry")
	if err := rt.Register(d); err != nil {
		t.Fatal(err)
	}
	err := rt.Run(func(c *Ctx) {
		mustCall(t, c, "nd", "bump") // logged ret: 1
		mustCall(t, c, "nd", "bump") // logged ret: 2
		d.crash = true
		// The crash reboots nd; replay re-runs bump #1 against the live
		// n=2 and diverges. Defense stamps the diverging seq as the taint
		// watermark and the retry restores the post-init image with the
		// suspect tail dropped — the group keeps serving.
		if _, err := c.Call("nd", "bump"); err != nil {
			t.Fatalf("bump after divergence retry: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := rt.Stats()
	if st.FailedRestores != 0 {
		t.Fatalf("FailedRestores = %d: divergence fail-stopped despite defense", st.FailedRestores)
	}
	if st.TaintRollbacks != 1 {
		t.Fatalf("TaintRollbacks = %d, want 1", st.TaintRollbacks)
	}
	if st.TamperDetections != 1 {
		t.Fatalf("TamperDetections = %d, want 1 (divergence counts as a detection)", st.TamperDetections)
	}
	recs := rt.Reboots()
	if len(recs) != 1 {
		t.Fatalf("reboots = %d, want 1", len(recs))
	}
	if rec := recs[0]; rec.TaintWatermark == 0 || rec.RestoredEpochSeq >= rec.TaintWatermark {
		t.Fatalf("restored epoch seq %d does not strictly predate watermark %d",
			rec.RestoredEpochSeq, rec.TaintWatermark)
	}
	// The attempt that diverged closed its replay phase before the retry
	// opened a new restore phase under the same reboot span.
	assertPhasesTile(t, rec)
}

// TestRerandomizedRebootsChangeFingerprint: consecutive reboots of the
// same component land on different arena layouts — the fingerprint
// differs every incarnation while the recovered state stays correct.
func TestRerandomizedRebootsChangeFingerprint(t *testing.T) {
	kv := &kvComp{name: "kv", checkpointed: true}
	cfg := defenseConfig()
	cfg.Defense.Seed = 42
	var fps []uint64
	rt := run(t, cfg, []Component{kv}, func(c *Ctx) {
		mustCall(t, c, "kv", "put", 1, "1")
		for i := 0; i < 3; i++ {
			if err := c.Reboot("kv"); err != nil {
				t.Fatal(err)
			}
			fps = append(fps, statsOf(c.rt, "kv").LayoutFingerprint)
			rets := mustCall(t, c, "kv", "get", 1)
			if v, _ := rets.Str(0); v != "1" {
				t.Fatalf("a = %q after reboot %d", v, i)
			}
		}
	})
	for i, fp := range fps {
		if fp == 0 {
			t.Fatalf("fingerprint %d is zero", i)
		}
		for j := 0; j < i; j++ {
			if fps[j] == fp {
				t.Fatalf("reboots %d and %d share layout fingerprint %d", j, i, fp)
			}
		}
	}
	recs := rt.Reboots()
	if len(recs) != 3 {
		t.Fatalf("reboots = %d, want 3", len(recs))
	}
	for i, rec := range recs {
		if len(rec.LayoutFingerprints) != 1 || rec.LayoutFingerprints[0] != fps[i] {
			t.Fatalf("record %d fingerprints %v, want [%d]", i, rec.LayoutFingerprints, fps[i])
		}
	}
}

// breachComp's poke handler attempts a cross-domain store. Interposition
// confines it to an EFAULT; with RebootOnFault the runtime additionally
// treats the attempt as evidence of compromise and reboots the offender
// into a re-randomized incarnation.
type breachComp struct {
	name      string
	initCount int
}

func (b *breachComp) Describe() Descriptor {
	return Descriptor{Name: b.name, HeapPages: 4, DomainPages: 4}
}

func (b *breachComp) Init(*Ctx) error {
	b.initCount++
	return nil
}

func (b *breachComp) Exports() map[string]Handler {
	return map[string]Handler{
		"poke": func(ctx *Ctx, args msg.Encoded) (msg.Encoded, error) {
			addr, err := args.Uint64(0)
			if err != nil {
				return nil, err
			}
			if werr := ctx.Mem().Write(mem.Addr(addr), []byte{0xff}); werr != nil {
				return nil, Errno("EFAULT: " + werr.Error())
			}
			return nil, nil
		},
		"ping": func(ctx *Ctx, _ msg.Encoded) (msg.Encoded, error) {
			return ctx.Ret("pong")
		},
	}
}

// TestPKRUMisuseRebootsOffender: a handler that raises protection faults
// gets its reply delivered (the caller observes the EFAULT, and the
// victim's memory stays intact), then the offending component is
// rebooted with reason pkru-misuse and a fresh layout.
func TestPKRUMisuseRebootsOffender(t *testing.T) {
	kv := &kvComp{name: "kv", checkpointed: true}
	mal := &breachComp{name: "mal"}
	cfg := defenseConfig()
	cfg.Defense.RebootOnFault = true
	rt := run(t, cfg, []Component{kv, mal}, func(c *Ctx) {
		mustCall(t, c, "kv", "put", 1, "1")
		victim := c.rt.comps["kv"].heapBase
		_, err := c.Call("mal", "poke", uint64(victim))
		if err == nil || !strings.Contains(err.Error(), "EFAULT") {
			t.Fatalf("cross-domain poke returned %v, want EFAULT", err)
		}
		// The victim's state is untouched and the offender serves again
		// after its punitive reboot.
		rets := mustCall(t, c, "kv", "get", 1)
		if v, _ := rets.Str(0); v != "1" {
			t.Errorf("victim state a = %q after breach, want 1", v)
		}
		if _, err := c.Call("mal", "poke", uint64(victim)); err == nil {
			t.Error("second poke succeeded")
		}
		// Wait out the second punitive reboot: a ping queues during the
		// restore and completes only once the group serves again.
		mustCall(t, c, "mal", "ping")
	})
	st := rt.Stats()
	if st.PKRUBreaches != 2 {
		t.Fatalf("PKRUBreaches = %d, want 2", st.PKRUBreaches)
	}
	if st.TaintRollbacks != 0 {
		t.Fatalf("TaintRollbacks = %d, want 0 (breach reboots don't taint the offender)", st.TaintRollbacks)
	}
	recs := rt.Reboots()
	if len(recs) != 2 {
		t.Fatalf("reboots = %d, want 2", len(recs))
	}
	for _, rec := range recs {
		if rec.Reason != "pkru-misuse" {
			t.Fatalf("reboot reason = %q, want pkru-misuse", rec.Reason)
		}
	}
	if mal.initCount != 3 {
		t.Fatalf("offender initCount = %d, want 3 (boot + two punitive reboots)", mal.initCount)
	}
	if kvReboots, _ := rt.ComponentStats("kv"); kvReboots.Reboots != 0 {
		t.Fatalf("victim rebooted %d times", kvReboots.Reboots)
	}
}

// TestDefenseDisabledIsInert: with the policy off, no seals, histories,
// fingerprints or defense counters appear — the subsystem costs nothing
// unless asked for.
func TestDefenseDisabledIsInert(t *testing.T) {
	kv := &kvComp{name: "kv", checkpointed: true}
	cfg := DaSConfig()
	cfg.Ckpt = ckpt.Policy{EveryCalls: 2}
	rt := run(t, cfg, []Component{kv}, func(c *Ctx) {
		for i := 0; i < 6; i++ {
			mustCall(t, c, "kv", "put", i, strconv.Itoa(i))
		}
		if err := c.Reboot("kv"); err != nil {
			t.Fatal(err)
		}
	})
	st := rt.Stats()
	if st.TamperDetections+st.PKRUBreaches+st.TaintRollbacks+st.QuarantinedImages != 0 {
		t.Fatalf("defense counters moved while disabled: %+v", st)
	}
	if metas := statsOf(rt, "kv").Images; metas != nil {
		t.Fatalf("image history %v retained while disabled", metas)
	}
	if fp := statsOf(rt, "kv").LayoutFingerprint; fp != 0 {
		t.Fatalf("fingerprint %d stamped while disabled", fp)
	}
	if rec := rt.Reboots()[0]; rec.LayoutFingerprints != nil || rec.TaintWatermark != 0 {
		t.Fatalf("defense fields populated while disabled: %+v", rec)
	}
}

// arenaKV keeps each slot's value in its own page of the component
// arena and nothing in Go state, so what a restore brings back is
// decided by the checkpoint image alone.
type arenaKV struct {
	base  mem.Addr
	crash bool // the next put panics, once
}

func (a *arenaKV) Describe() Descriptor {
	return Descriptor{Name: "akv", Stateful: true, Checkpoint: true, HeapPages: 16, DomainPages: 16}
}

func (a *arenaKV) Init(ctx *Ctx) error {
	a.base = ctx.comp.heapBase
	return nil
}

func (a *arenaKV) slot(args msg.Encoded) (mem.Addr, error) {
	i, err := args.Int(0)
	return a.base + mem.Addr(i)*mem.PageSize, err
}

func (a *arenaKV) Exports() map[string]Handler {
	return map[string]Handler{
		"put": func(ctx *Ctx, args msg.Encoded) (msg.Encoded, error) {
			at, err := a.slot(args)
			if err != nil {
				return nil, err
			}
			val, err := args.Str(1)
			if err != nil {
				return nil, err
			}
			if a.crash {
				a.crash = false
				panic("injected crash in arenaKV.put")
			}
			buf := make([]byte, 16)
			copy(buf, val)
			return nil, ctx.Mem().Write(at, buf)
		},
		"get": func(ctx *Ctx, args msg.Encoded) (msg.Encoded, error) {
			at, err := a.slot(args)
			if err != nil {
				return nil, err
			}
			buf, err := ctx.Mem().ReadBytes(at, 16)
			if err != nil {
				return nil, err
			}
			return ctx.Ret(string(bytes.TrimRight(buf, "\x00")))
		},
	}
}

func (a *arenaKV) LogPolicies() (*msg.Namespace, map[string]LogPolicy) {
	return nil, map[string]LogPolicy{"put": {Class: msg.ClassDurable}} // "get" is state-unchanged: not logged
}

// TestTaintRollbackAcrossSharedImages: with the default history depth of
// 4 every retained image is a SnapshotDelta over its predecessor, so the
// ring's images share every page but the slots written between them. A
// taint rollback restores an older image while newer ones that hold the
// same buffers sit quarantined in the ring, and later captures chain on
// the restored one; through all of it the arena must agree with a
// host-side shadow of the acknowledged, un-tainted puts.
func TestTaintRollbackAcrossSharedImages(t *testing.T) {
	akv := &arenaKV{}
	cfg := DaSConfig()
	cfg.Defense = defense.Policy{Enabled: true, SealEveryCalls: 4}
	cfg.Ckpt = ckpt.Policy{EveryCalls: 2}
	shadow := map[int]string{}
	put := func(c *Ctx, slot int) {
		shadow[slot] = "v" + strconv.Itoa(slot) + "." + strconv.Itoa(len(shadow))
		mustCall(t, c, "akv", "put", slot, shadow[slot])
	}
	check := func(c *Ctx, when string) {
		t.Helper()
		for slot := 1; slot <= 12; slot++ {
			rets := mustCall(t, c, "akv", "get", slot)
			if v, _ := rets.Str(0); v != shadow[slot] {
				t.Errorf("%s: slot %d = %q, shadow says %q", when, slot, v, shadow[slot])
			}
		}
	}
	rt := run(t, cfg, []Component{akv}, func(c *Ctx) {
		// Six puts: cadence images after puts 2, 4 and 6 join the post-init
		// image in the ring, and the seal captured after put1 is verified
		// clean and advanced after put5 — the last un-tainted call.
		var clean map[int]string
		for slot := 1; slot <= 6; slot++ {
			if slot == 6 {
				clean = maps.Clone(shadow)
			}
			put(c, slot)
		}
		if n := len(statsOf(c.rt, "akv").Images); n != 4 {
			t.Fatalf("ring holds %d images before the attack, want 4", n)
		}
		// Tamper with slot 2's page: clean, and one shared buffer, in every
		// image of the ring so far.
		tc := c.rt.comps["akv"]
		if err := c.rt.memry.HostWrite(tc.heapBase+2*mem.PageSize, []byte("tampered")); err != nil {
			t.Fatal(err)
		}
		// The eighth put's image captures the tampered page and an
		// overwritten slot 3; the ninth's verification breaks the seal.
		// Everything since put5 ran after the last clean verification and
		// the rollback sheds it.
		for _, slot := range []int{7, 3, 9} {
			put(c, slot)
		}
		shadow = clean
		// The first get queues behind the tamper reboot. Read the ring right
		// after it, before check's gets let the cadence evict from it.
		mustCall(t, c, "akv", "get", 1)
		var quarantined int
		for _, m := range statsOf(c.rt, "akv").Images {
			if m.Quarantined {
				quarantined++
			}
		}
		if quarantined != 2 {
			t.Errorf("image metas %+v: want the sixth and eighth puts' images quarantined", statsOf(c.rt, "akv").Images)
		}
		check(c, "after taint rollback")
		// New captures chain on the restored image and push the
		// quarantined ones out of the ring; slot 3 is overwritten so an old
		// buffer is dropped by some images and still held by others.
		for _, slot := range []int{10, 3, 11, 12} {
			put(c, slot)
		}
		// An ordinary crash now restores the newest image.
		akv.crash = true
		put(c, 1)
		check(c, "after crash recovery")
	})
	st := rt.Stats()
	if st.TamperDetections != 1 || st.TaintRollbacks != 1 || st.QuarantinedImages != 2 {
		t.Fatalf("detections=%d rollbacks=%d quarantined=%d, want 1/1/2",
			st.TamperDetections, st.TaintRollbacks, st.QuarantinedImages)
	}
	if recs := rt.Reboots(); len(recs) != 2 || recs[0].RestoredEpochSeq >= recs[0].TaintWatermark {
		t.Fatalf("reboots %+v: want a rollback below the watermark, then a crash reboot", recs)
	}
}

// TestFullRestartDiscardsImageHistory: a full restart starts a new
// incarnation, so no image, archive, seal or taint of the old one may
// outlive it. A seal kept across the restart breaks on the scrub's host
// stamps and rolls the new incarnation back to an image of the old one,
// bringing back its slots and losing puts made since the restart.
func TestFullRestartDiscardsImageHistory(t *testing.T) {
	akv := &arenaKV{}
	cfg := DaSConfig()
	cfg.Defense = defense.Policy{Enabled: true, SealEveryCalls: 4}
	cfg.Ckpt = ckpt.Policy{EveryCalls: 2}
	rt := run(t, cfg, []Component{akv}, func(c *Ctx) {
		for slot := 1; slot <= 6; slot++ {
			mustCall(t, c, "akv", "put", slot, "old")
		}
		before := statsOf(c.rt, "akv").Ckpt
		if err := c.rt.FullRestart(c); err != nil {
			t.Fatalf("FullRestart: %v", err)
		}
		after := statsOf(c.rt, "akv")
		if after.Ckpt != before {
			t.Errorf("checkpoint accounting %+v after the restart, want %+v kept", after.Ckpt, before)
		}
		if len(after.Images) != 1 {
			t.Errorf("image metas %+v after the restart, want the new post-init image alone", after.Images)
		}
		for slot := 7; slot <= 12; slot++ {
			mustCall(t, c, "akv", "put", slot, "new")
		}
		for slot := 1; slot <= 12; slot++ {
			want := ""
			if slot >= 7 {
				want = "new"
			}
			if v, _ := mustCall(t, c, "akv", "get", slot).Str(0); v != want {
				t.Errorf("slot %d = %q, want %q", slot, v, want)
			}
		}
	})
	if st := rt.Stats(); st.TamperDetections != 0 || st.TaintRollbacks != 0 {
		t.Fatalf("detections=%d rollbacks=%d, want none: the restart left a stale seal or image behind",
			st.TamperDetections, st.TaintRollbacks)
	}
	if recs := rt.Reboots(); len(recs) != 0 {
		t.Fatalf("reboots %+v, want none", recs)
	}
}

// TestVersionSwitchDiscardsImageHistory: the swapped-in version cold-boots
// into a fresh image store. A seal of the old version kept across the
// switch breaks on the cold boot's scrub, and the rollback it triggers
// lands on an old-version image and drops puts the new version
// acknowledged.
func TestVersionSwitchDiscardsImageHistory(t *testing.T) {
	flaky := newFlakyKV("kv", 13)
	flaky.checkpointed = true
	fixed := newFixedKV("kv")
	fixed.checkpointed = true
	cfg := DaSConfig()
	cfg.MaxVirtualTime = time.Hour
	cfg.Defense = defense.Policy{Enabled: true, SealEveryCalls: 4}
	cfg.Ckpt = ckpt.Policy{EveryCalls: 2}
	rt := NewRuntime(cfg)
	if err := rt.Register(flaky); err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterFallback("kv", fixed); err != nil {
		t.Fatal(err)
	}
	err := rt.Run(func(c *Ctx) {
		for k := 1; k <= 6; k++ {
			mustCall(t, c, "kv", "put", k, strconv.Itoa(k))
		}
		mustCall(t, c, "kv", "put", 13, "13") // crashes twice, then the swap
		if metas := statsOf(c.rt, "kv").Images; len(metas) != 0 {
			t.Errorf("image metas %+v after the switch, want none of the old version", metas)
		}
		for k := 20; k <= 30; k++ {
			mustCall(t, c, "kv", "put", k, strconv.Itoa(k))
		}
		for k := 20; k <= 30; k++ {
			rets, err := c.Call("kv", "get", k)
			if v, _ := rets.Str(0); err != nil || v != strconv.Itoa(k) {
				t.Errorf("get %d = %q, %v; want %d", k, v, err, k)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.VersionSwitches != 1 || st.TamperDetections != 0 || st.TaintRollbacks != 0 {
		t.Fatalf("switches=%d detections=%d rollbacks=%d, want 1/0/0", st.VersionSwitches, st.TamperDetections, st.TaintRollbacks)
	}
	for _, r := range rt.Reboots() {
		if strings.HasPrefix(r.Reason, "tamper") {
			t.Errorf("reboot %q after the version switch", r.Reason)
		}
	}
}
