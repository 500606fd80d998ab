package core

import (
	"errors"
	"testing"
	"time"

	"vampos/internal/msg"
)

func TestFullRestartScrubsEverything(t *testing.T) {
	kv := &kvComp{name: "kv", initSeed: "gen"}
	run(t, DaSConfig(), []Component{kv}, func(c *Ctx) {
		for i := 0; i < 8; i++ {
			mustCall(t, c, "kv", "put", i, "v")
		}
		if statsOf(c.Runtime(), "kv").LogLen == 0 {
			t.Fatal("setup: nothing logged")
		}
		if err := c.Runtime().FullRestart(c); err != nil {
			t.Fatalf("FullRestart: %v", err)
		}
		// All volatile state gone; the component re-initialised.
		if _, err := c.Call("kv", "get", 3); !errors.Is(err, ENOENT) {
			t.Errorf("k3 after full restart = %v, want ENOENT", err)
		}
		if got := statsOf(c.Runtime(), "kv").LogLen; got != 0 {
			t.Errorf("log length after full restart = %d", got)
		}
		// And the instance keeps working.
		mustCall(t, c, "kv", "put", 16, "1")
		rets := mustCall(t, c, "kv", "get", 16)
		if v, _ := rets.Str(0); v != "1" {
			t.Errorf("fresh = %q", v)
		}
	})
	if kv.initCount != 2 {
		t.Fatalf("initCount = %d, want 2 (boot + one full restart)", kv.initCount)
	}
}

func TestFullRestartVanilla(t *testing.T) {
	kv := &kvComp{name: "kv"}
	run(t, VanillaConfig(), []Component{kv}, func(c *Ctx) {
		mustCall(t, c, "kv", "put", 1, "1")
		if err := c.Runtime().FullRestart(c); err != nil {
			t.Fatalf("FullRestart: %v", err)
		}
		if _, err := c.Call("kv", "get", 1); !errors.Is(err, ENOENT) {
			t.Errorf("a survives vanilla full restart: %v", err)
		}
	})
}

func TestFullRestartClearsFailStop(t *testing.T) {
	det := &detCrasher{name: "bad"}
	run(t, DaSConfig(), []Component{det}, func(c *Ctx) {
		if _, err := c.Call("bad", "boom"); !errors.Is(err, ErrComponentFailed) {
			t.Fatalf("setup: %v", err)
		}
		if err := c.Runtime().FullRestart(c); err != nil {
			t.Fatalf("FullRestart: %v", err)
		}
		// The whole-image reboot clears the fail-stop; the deterministic
		// bug then fires again on next use, as a real reboot would see.
		if _, err := c.Call("bad", "boom"); !errors.Is(err, ErrComponentFailed) {
			t.Fatalf("post-restart crash handling = %v", err)
		}
	})
}

func TestMaxVirtualTimeBackstop(t *testing.T) {
	cfg := DaSConfig()
	cfg.MaxVirtualTime = 2 * time.Second
	rt := NewRuntime(cfg)
	if err := rt.Register(&kvComp{name: "kv"}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := rt.Run(func(c *Ctx) {
		// A runaway controller that would spin forever in virtual time.
		for i := 0; i < 1_000_000; i++ {
			c.Sleep(time.Second)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Clock().Elapsed() > 10*time.Second {
		t.Fatalf("virtual clock ran to %v despite the backstop", rt.Clock().Elapsed())
	}
	if time.Since(start) > 30*time.Second {
		t.Fatal("backstop too slow in wall time")
	}
}

func TestDomainExhaustionSurfacesAsCallError(t *testing.T) {
	// A component with a tiny message domain: huge arguments cannot be
	// logged and the call fails with ENOSPC instead of corrupting state.
	kv := &tinyDomainKV{}
	kv.name = "kv"
	run(t, DaSConfig(), []Component{kv}, func(c *Ctx) {
		big := make([]byte, 64<<10)
		_, err := c.Call("kv", "blob", "k", big)
		if err == nil {
			t.Fatal("oversized logged call succeeded")
		}
		// Small calls still work afterwards.
		mustCall(t, c, "kv", "put", 1, "1")
	})
}

// tinyDomainKV is kvComp with a one-page message domain and a logged
// function taking arbitrarily large arguments.
type tinyDomainKV struct {
	kvComp
}

func (k *tinyDomainKV) Describe() Descriptor {
	d := k.kvComp.Describe()
	d.DomainPages = 1
	return d
}

func (k *tinyDomainKV) Exports() map[string]Handler {
	exp := k.kvComp.Exports()
	exp["blob"] = func(ctx *Ctx, args msg.Encoded) (msg.Encoded, error) {
		return nil, nil
	}
	return exp
}

func (k *tinyDomainKV) LogPolicies() (*msg.Namespace, map[string]LogPolicy) {
	ns, p := k.kvComp.LogPolicies()
	p["blob"] = LogPolicy{Class: msg.ClassDurable}
	return ns, p
}

func TestReplayDivergenceFailsStopSafely(t *testing.T) {
	// A component whose outbound call pattern depends on hidden state
	// that the replay cannot reproduce: the divergence must be detected
	// and the group fail-stopped, not silently corrupted.
	backend := &countingEcho{name: "backend"}
	dv := &divergentComp{}
	cfg := DaSConfig()
	cfg.MaxVirtualTime = time.Hour
	rt := NewRuntime(cfg)
	rec := rt.NewTracer("divergence-fail-stop")
	for _, comp := range []Component{backend, dv} {
		if err := rt.Register(comp); err != nil {
			t.Fatal(err)
		}
	}
	err := rt.Run(func(c *Ctx) {
		mustCall(t, c, "diverge", "op") // outbound to backend.echo logged
		dv.flip = true                  // replay will issue a different call
		err := c.Reboot("diverge")
		if !errors.Is(err, ErrComponentFailed) {
			t.Fatalf("reboot with divergent replay = %v, want ErrComponentFailed", err)
		}
		if c.Runtime().Stats().FailedRestores != 1 {
			t.Fatalf("FailedRestores = %d", c.Runtime().Stats().FailedRestores)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The failed restore closed its phase and its span on the way out.
	assertPhasesTile(t, rec)
}

type divergentComp struct {
	flip bool
}

func (d *divergentComp) Describe() Descriptor {
	return Descriptor{Name: "diverge", Stateful: true, HeapPages: 4, DomainPages: 8}
}
func (d *divergentComp) Init(*Ctx) error { return nil }
func (d *divergentComp) Exports() map[string]Handler {
	return map[string]Handler{
		"op": func(ctx *Ctx, args msg.Encoded) (msg.Encoded, error) {
			fn := "echo"
			if d.flip {
				fn = "other"
			}
			_, err := ctx.Call("backend", fn, "x")
			if err != nil && !d.flip {
				return nil, err
			}
			return nil, nil
		},
	}
}
func (d *divergentComp) LogPolicies() (*msg.Namespace, map[string]LogPolicy) {
	return nil, map[string]LogPolicy{"op": {Class: msg.ClassDurable}}
}

func TestKeysInUseWithMerges(t *testing.T) {
	cfg := DaSConfig()
	cfg.Merges = [][]string{{"a", "b"}}
	comps := []Component{}
	for _, n := range []string{"a", "b", "c"} {
		comps = append(comps, &statelessComp{name: n})
	}
	rt := run(t, cfg, comps, func(c *Ctx) {})
	// scheduler + domains + app + 2 groups (a+b merged, c) = 5
	if got := rt.KeysInUse(); got != 5 {
		t.Fatalf("KeysInUse = %d, want 5", got)
	}
}

func TestRebootWaitsForInFlightCall(t *testing.T) {
	// A proactive reboot must not kill a component mid-request: it waits
	// for the in-flight call to finish.
	slow := &slowComp{}
	run(t, DaSConfig(), []Component{slow}, func(c *Ctx) {
		done := false
		var callErr error
		c.Go("caller", func(cc *Ctx) {
			_, callErr = cc.Call("slow", "work")
			done = true
		})
		// Give the call time to start processing.
		c.Sleep(time.Millisecond)
		if err := c.Reboot("slow"); err != nil {
			t.Fatalf("reboot: %v", err)
		}
		for !done {
			c.Sleep(time.Millisecond)
		}
		if callErr != nil {
			t.Fatalf("in-flight call failed across proactive reboot: %v", callErr)
		}
	})
}

type slowComp struct{}

func (slowComp) Describe() Descriptor {
	return Descriptor{Name: "slow", HeapPages: 4, DomainPages: 4}
}
func (slowComp) Init(*Ctx) error { return nil }
func (slowComp) Exports() map[string]Handler {
	return map[string]Handler{
		"work": func(ctx *Ctx, args msg.Encoded) (msg.Encoded, error) {
			ctx.Sleep(20 * time.Millisecond) // long-running request
			return nil, nil
		},
	}
}
