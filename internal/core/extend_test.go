package core

import (
	"errors"
	"testing"
	"time"

	"vampos/internal/msg"
)

// flakyKV crashes deterministically on a chosen key until replaced.
type flakyKV struct {
	kvComp
	crashKey int
}

func newFlakyKV(name string, crashKey int) *flakyKV {
	f := &flakyKV{crashKey: crashKey}
	f.kvComp.name = name
	return f
}

func (f *flakyKV) Exports() map[string]Handler {
	exp := f.kvComp.Exports()
	orig := exp["put"]
	exp["put"] = func(ctx *Ctx, args msg.Encoded) (msg.Encoded, error) {
		if key, err := args.Int(0); err == nil && key == f.crashKey {
			panic("deterministic bug in flaky put")
		}
		return orig(ctx, args)
	}
	return exp
}

// fixedKV is the multi-version alternate: same interface, no bug.
func newFixedKV(name string) *kvComp {
	return &kvComp{name: name, initSeed: "fixed-version"}
}

func TestFallbackSwapsInOnDeterministicBug(t *testing.T) {
	flaky := newFlakyKV("kv", 13)
	fixed := newFixedKV("kv")
	cfg := DaSConfig()
	cfg.MaxVirtualTime = time.Hour
	rt := NewRuntime(cfg)
	if err := rt.Register(flaky); err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterFallback("kv", fixed); err != nil {
		t.Fatal(err)
	}
	err := rt.Run(func(c *Ctx) {
		mustCall(t, c, "kv", "put", 1, "1")
		mustCall(t, c, "kv", "put", 2, "2")
		// The poison key crashes the buggy version on every attempt; the
		// runtime swaps in the fixed version, replays the log, and the
		// retried call succeeds.
		rets := mustCall(t, c, "kv", "put", 13, "3")
		if n, _ := rets.Int(0); n == 0 {
			t.Error("put returned no count")
		}
		// State written before the bug survived the version switch.
		rets = mustCall(t, c, "kv", "get", 1)
		if v, _ := rets.Str(0); v != "1" {
			t.Errorf("a = %q after version switch", v)
		}
		// The new version is serving (its init seed is visible).
		rets = mustCall(t, c, "kv", "get", bootKey)
		if v, _ := rets.Str(0); v != "fixed-version" {
			t.Errorf("boot seed = %q, want fixed-version", v)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Stats().VersionSwitches != 1 {
		t.Fatalf("VersionSwitches = %d, want 1", rt.Stats().VersionSwitches)
	}
	// Both the crash-triggered reboot and the version-switch reboot ran.
	var reasons []string
	for _, r := range rt.Reboots() {
		reasons = append(reasons, r.Reason)
	}
	found := false
	for _, r := range reasons {
		if r == "version-switch" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no version-switch reboot in %v", reasons)
	}
}

func TestFallbackThatAlsoFailsFailsStop(t *testing.T) {
	flaky := newFlakyKV("kv", 13)
	alsoFlaky := newFlakyKV("kv", 13)
	cfg := DaSConfig()
	cfg.MaxVirtualTime = time.Hour
	rt := NewRuntime(cfg)
	if err := rt.Register(flaky); err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterFallback("kv", alsoFlaky); err != nil {
		t.Fatal(err)
	}
	err := rt.Run(func(c *Ctx) {
		_, err := c.Call("kv", "put", 13, "x")
		if !errors.Is(err, ErrComponentFailed) {
			t.Errorf("double-buggy versions = %v, want ErrComponentFailed", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Stats().VersionSwitches != 1 {
		t.Fatalf("VersionSwitches = %d (one swap attempted)", rt.Stats().VersionSwitches)
	}
}

func TestRegisterFallbackValidation(t *testing.T) {
	rt := NewRuntime(DaSConfig())
	if err := rt.Register(&kvComp{name: "kv"}); err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterFallback("ghost", &kvComp{name: "ghost"}); err == nil {
		t.Error("fallback for unknown component accepted")
	}
	if err := rt.RegisterFallback("kv", nil); err == nil {
		t.Error("nil fallback accepted")
	}
	if err := rt.RegisterFallback("kv", &kvComp{name: "other"}); err == nil {
		t.Error("name-mismatched fallback accepted")
	}
}

func TestFailStopHandlerRunsOnceWithWorkingComponents(t *testing.T) {
	crasher := &detCrasher{name: "bad"}
	healthy := &kvComp{name: "kv"}
	cfg := DaSConfig()
	cfg.MaxVirtualTime = time.Hour
	rt := NewRuntime(cfg)
	if err := rt.Register(crasher); err != nil {
		t.Fatal(err)
	}
	if err := rt.Register(healthy); err != nil {
		t.Fatal(err)
	}
	handlerRuns := 0
	var failedComp string
	var savedViaHealthy bool
	rt.SetFailStopHandler(func(ctx *Ctx, component string) {
		handlerRuns++
		failedComp = component
		// The graceful-termination path: save state through a healthy
		// component (the paper's "store the in-memory KVs to storage").
		if _, err := ctx.Call("kv", "put", 14, "saved"); err == nil {
			savedViaHealthy = true
		}
		// Calls into the dead group fail fast, not hang.
		if _, err := ctx.Call("bad", "boom"); !errors.Is(err, ErrComponentFailed) {
			t.Errorf("call into dead group = %v", err)
		}
	})
	err := rt.Run(func(c *Ctx) {
		_, err := c.Call("bad", "boom")
		if !errors.Is(err, ErrComponentFailed) {
			t.Fatalf("boom = %v", err)
		}
		// A second caller hitting the dead group must not re-run the
		// handler.
		_, _ = c.Call("bad", "boom")
		// Give the handler thread time to run.
		c.Sleep(10 * time.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	if handlerRuns != 1 {
		t.Fatalf("handler ran %d times, want 1", handlerRuns)
	}
	if failedComp != "bad" {
		t.Fatalf("handler got component %q", failedComp)
	}
	if !savedViaHealthy {
		t.Fatal("handler could not save state through the healthy component")
	}
	if v := healthy.data[14]; v != "saved" {
		t.Fatalf("lastrites = %q", v)
	}
}
