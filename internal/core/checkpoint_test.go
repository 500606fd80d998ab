package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"vampos/internal/ckpt"
	"vampos/internal/msg"
	"vampos/internal/trace"
)

// TestCadenceCheckpointBoundsReplay: with a call-count cadence, the
// worker re-checkpoints at quiescent points, truncates the covered log
// prefix, and recovery restores the latest image plus only the short
// tail — while every key survives.
func TestCadenceCheckpointBoundsReplay(t *testing.T) {
	kv := &kvComp{name: "kv", checkpointed: true, initSeed: "seed"}
	cfg := DaSConfig()
	cfg.Ckpt = ckpt.Policy{EveryCalls: 4}
	rt := run(t, cfg, []Component{kv}, func(c *Ctx) {
		for i := 0; i < 10; i++ {
			mustCall(t, c, "kv", "put", i, strconv.Itoa(i))
		}
		if err := c.Reboot("kv"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			rets := mustCall(t, c, "kv", "get", i)
			if v, _ := rets.Str(0); v != strconv.Itoa(i) {
				t.Errorf("k%d = %q after checkpointed recovery", i, v)
			}
		}
	})
	cs := statsOf(rt, "kv").Ckpt
	if cs.CheckpointCount < 2 {
		t.Fatalf("CheckpointCount = %d over 10 calls at cadence 4, want >= 2", cs.CheckpointCount)
	}
	if cs.TruncatedEntries == 0 {
		t.Fatal("cadence checkpoints truncated nothing")
	}
	rec := rt.Reboots()[0]
	if rec.ReplayedEntries > 4 {
		t.Fatalf("replayed %d entries, want <= cadence 4", rec.ReplayedEntries)
	}
	if kv.initCount != 1 {
		t.Fatalf("initCount = %d, want 1 (image restore, no re-init)", kv.initCount)
	}
	if rt.Stats().Checkpoints != cs.CheckpointCount {
		t.Fatalf("runtime checkpoints %d != component's %d", rt.Stats().Checkpoints, cs.CheckpointCount)
	}
}

// TestManualCheckpoint: Ctx.Checkpoint forces an image regardless of
// policy; the covered prefix is truncated and later recovery replays
// only calls made after it.
func TestManualCheckpoint(t *testing.T) {
	kv := &kvComp{name: "kv", checkpointed: true}
	rt := run(t, DaSConfig(), []Component{kv}, func(c *Ctx) {
		mustCall(t, c, "kv", "put", 1, "1")
		mustCall(t, c, "kv", "put", 2, "2")
		if err := c.Checkpoint("kv"); err != nil {
			t.Fatal(err)
		}
		if got := statsOf(c.rt, "kv").LogLen; got != 0 {
			t.Fatalf("log = %d entries after manual checkpoint, want 0", got)
		}
		mustCall(t, c, "kv", "put", 3, "3")
		if err := c.Reboot("kv"); err != nil {
			t.Fatal(err)
		}
		for key := 1; key <= 3; key++ {
			rets := mustCall(t, c, "kv", "get", key)
			if v, _ := rets.Str(0); v != strconv.Itoa(key) {
				t.Errorf("%d = %q after recovery, want %d", key, v, key)
			}
		}
	})
	cs := statsOf(rt, "kv").Ckpt
	if cs.CheckpointCount != 1 {
		t.Fatalf("CheckpointCount = %d, want 1", cs.CheckpointCount)
	}
	if rec := rt.Reboots()[0]; rec.ReplayedEntries != 1 {
		t.Fatalf("replayed %d entries, want 1 (only the post-checkpoint put)", rec.ReplayedEntries)
	}
}

// TestManualCheckpointValidation: ineligible targets are rejected.
func TestManualCheckpointValidation(t *testing.T) {
	kv := &kvComp{name: "kv", checkpointed: true}
	plain := &statelessComp{name: "plain"}
	run(t, DaSConfig(), []Component{kv, plain}, func(c *Ctx) {
		if err := c.Checkpoint("nosuch"); err == nil {
			t.Error("checkpoint of unknown component succeeded")
		}
		if err := c.Checkpoint("plain"); err == nil {
			t.Error("checkpoint of non-eligible component succeeded")
		}
	})
}

// nondetComp returns a host-side counter its SaveState does not capture:
// replaying its calls after a restore produces different results than
// the log recorded — exactly the divergence the replay return check
// exists to surface.
type nondetComp struct {
	name  string
	n     int
	crash bool
}

func (d *nondetComp) Describe() Descriptor {
	return Descriptor{Name: d.name, Stateful: true, Checkpoint: true, HeapPages: 8, DomainPages: 8}
}

func (d *nondetComp) Init(*Ctx) error { return nil }

func (d *nondetComp) Exports() map[string]Handler {
	return map[string]Handler{
		"bump": func(ctx *Ctx, args msg.Encoded) (msg.Encoded, error) {
			if d.crash {
				d.crash = false
				panic("injected crash in bump")
			}
			d.n++
			return ctx.Ret(d.n)
		},
	}
}

func (d *nondetComp) LogPolicies() (*msg.Namespace, map[string]LogPolicy) {
	return nil, map[string]LogPolicy{"bump": {Class: msg.ClassDurable}}
}

// SaveState deliberately omits n.
func (d *nondetComp) SaveState() ([]byte, error)  { return []byte("x"), nil }
func (d *nondetComp) RestoreState(p []byte) error { return nil }

// TestReplayReturnCheckAllocatesNothing: the check runs on every replayed
// entry, so a matching one costs no allocation — it compares the logged
// bytes with the replayed ones — while a mismatch is still reported.
func TestReplayReturnCheckAllocatesNothing(t *testing.T) {
	enc := func(args ...any) msg.Encoded {
		e, err := msg.EncodeArgs(args)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	v := &msg.RecordView{Seq: 7, Fn: "put", Rets: enc(3, "value", []byte("bytes"))}
	rets := enc(3, "value", []byte("bytes"))
	if de := retDivergence("kv", v, rets, nil); de != nil {
		t.Fatalf("equal results diverged: %v", de)
	}
	n := testing.AllocsPerRun(100, func() {
		if retDivergence("kv", v, rets, nil) != nil {
			t.Fatal("equal results diverged")
		}
	})
	if n != 0 {
		t.Fatalf("%v allocations to check one replayed entry, want 0", n)
	}
	de := retDivergence("kv", v, enc(4, "value", []byte("bytes")), nil)
	if de == nil || de.Seq != 7 {
		t.Fatalf("different results: %v, want a divergence at seq 7", de)
	}
	if want := "logged rets [3 value [98 121 116 101 115]], replay produced [4 value [98 121 116 101 115]]"; de.Detail != want {
		t.Fatalf("divergence detail %q, want %q", de.Detail, want)
	}
	if de := retDivergence("kv", v, rets, ENOENT); de == nil {
		t.Fatal("a replay error the log does not hold went unreported")
	}
}

// TestReplayRetCheckSurfacesDivergence: a replayed call whose results
// differ from the log fails the restoration with a ReplayDivergenceError
// and leaves a detection instant in the trace. The return check always
// runs; the subtest name records that it is on.
func TestReplayRetCheckSurfacesDivergence(t *testing.T) {
	t.Run("check=true", func(t *testing.T) {
		d := &nondetComp{name: "nd"}
		cfg := DaSConfig()
		cfg.MaxVirtualTime = time.Hour
		rt := NewRuntime(cfg)
		rec := rt.NewTracer("retcheck-test")
		if err := rt.Register(d); err != nil {
			t.Fatal(err)
		}
		err := rt.Run(func(c *Ctx) {
			mustCall(t, c, "nd", "bump") // logged ret: 1
			mustCall(t, c, "nd", "bump") // logged ret: 2
			d.crash = true
			// The crash reboots nd; replay re-runs bump #1 against the live
			// n=2 and returns 3 — diverging from the log.
			if _, err := c.Call("nd", "bump"); !errors.Is(err, ErrComponentFailed) {
				t.Errorf("bump across a divergent restore = %v, want ErrComponentFailed", err)
			}
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if rt.Stats().FailedRestores == 0 {
			t.Fatal("divergent replay restored successfully")
		}
		var detail string
		for _, e := range rec.Snapshot() {
			if e.Kind == trace.KindDetect && e.Name == "replay-divergence" {
				detail = e.Detail
			}
		}
		if want := "logged rets [1], replay produced [3]"; !strings.Contains(detail, want) {
			t.Fatalf("replay-divergence instant %q, want it to name %q", detail, want)
		}
	})
}

// TestReplayDivergenceErrorShape: the error names the component, the
// function and the mismatch so forensics can localise the
// nondeterminism.
func TestReplayDivergenceErrorShape(t *testing.T) {
	de := &ReplayDivergenceError{Component: "nd", WantFn: "bump", GotFn: "bump", RetMismatch: true, Detail: "logged rets [1], replay produced [3]"}
	var target *ReplayDivergenceError
	if !errors.As(fmt.Errorf("wrap: %w", de), &target) {
		t.Fatal("ReplayDivergenceError does not unwrap")
	}
	text := de.Error()
	for _, want := range []string{"nd", "bump", "[1]", "[3]"} {
		if !strings.Contains(text, want) {
			t.Errorf("error %q missing %q", text, want)
		}
	}
}
