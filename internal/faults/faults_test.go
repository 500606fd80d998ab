package faults

import (
	"errors"
	"strings"
	"testing"
	"time"

	"vampos/internal/core"
	"vampos/internal/mem"
	"vampos/internal/unikernel"
)

func withInstance(t *testing.T, coreCfg core.Config, extra []core.Component, fn func(s *unikernel.Sys, inj *Injector)) *unikernel.Instance {
	t.Helper()
	coreCfg.MaxVirtualTime = time.Hour
	coreCfg.WatchdogPeriod = 50 * time.Millisecond
	coreCfg.HangThreshold = 400 * time.Millisecond
	inst, err := unikernel.New(unikernel.Config{Core: coreCfg, FS: true, Net: true, Sysinfo: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range extra {
		if err := inst.Runtime().Register(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := inst.Run(func(s *unikernel.Sys) {
		fn(s, NewInjector(inst.Runtime()))
		s.Stop()
	}); err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestCrashInjectionRecovers(t *testing.T) {
	inst := withInstance(t, core.DaSConfig(), nil, func(s *unikernel.Sys, inj *Injector) {
		fd, err := s.Open("/f", unikernel.OCreate|unikernel.ORdwr)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Instance().Runtime().ArmFault("9pfs", "uk_9pfs_write", core.FaultCrash); err != nil {
			t.Fatal(err)
		}
		// The write crashes 9PFS; VampOS reboots it and retries.
		if _, err := s.Write(fd, []byte("survives")); err != nil {
			t.Fatalf("write across crash: %v", err)
		}
		data, err := s.Pread(fd, 100, 0)
		if err != nil || string(data) != "survives" {
			t.Fatalf("content = %q, %v", data, err)
		}
	})
	if inst.Runtime().Stats().Failures != 1 {
		t.Fatalf("failures = %d", inst.Runtime().Stats().Failures)
	}
}

func TestHangInjectionDetectedAndRecovered(t *testing.T) {
	inst := withInstance(t, core.DaSConfig(), nil, func(s *unikernel.Sys, inj *Injector) {
		if err := s.Instance().Runtime().ArmFault("process", "getpid", core.FaultHang); err != nil {
			t.Fatal(err)
		}
		pid, err := s.Getpid()
		if err != nil || pid != 1 {
			t.Fatalf("getpid across hang = %d, %v", pid, err)
		}
	})
	if inst.Runtime().Stats().Hangs != 1 {
		t.Fatalf("hangs = %d, want 1", inst.Runtime().Stats().Hangs)
	}
	reboots := inst.Runtime().Reboots()
	if len(reboots) != 1 || reboots[0].Reason != "hang" {
		t.Fatalf("reboots = %+v", reboots)
	}
}

func TestArmFaultValidatesTarget(t *testing.T) {
	withInstance(t, core.DaSConfig(), nil, func(s *unikernel.Sys, inj *Injector) {
		if err := s.Instance().Runtime().ArmFault("ghost", "x", core.FaultCrash); err == nil {
			t.Error("armed fault on unknown component")
		}
		if err := s.Instance().Runtime().ArmFault("vfs", "nope", core.FaultCrash); err == nil {
			t.Error("armed fault on unknown function")
		}
	})
}

func TestArmFaultErrorsListCandidates(t *testing.T) {
	withInstance(t, core.DaSConfig(), nil, func(s *unikernel.Sys, inj *Injector) {
		err := s.Instance().Runtime().ArmFault("ghost", "x", core.FaultCrash)
		if err == nil {
			t.Fatal("armed fault on unknown component")
		}
		for _, want := range []string{"vfs", "9pfs", "lwip", "process"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("unknown-component error %q does not list %q", err, want)
			}
		}
		err = s.Instance().Runtime().ArmFault("vfs", "nope", core.FaultCrash)
		if err == nil {
			t.Fatal("armed fault on unknown function")
		}
		for _, want := range []string{"open", "read", "write", "close"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("unknown-function error %q does not list %q", err, want)
			}
		}
	})
}

func TestErrnoInjectionIsTransient(t *testing.T) {
	inst := withInstance(t, core.DaSConfig(), nil, func(s *unikernel.Sys, inj *Injector) {
		fd, err := s.Open("/t", unikernel.OCreate|unikernel.ORdwr)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Instance().Runtime().ArmFaultSpec("9pfs", "uk_9pfs_write", core.FaultSpec{Kind: core.FaultErrno, Errno: core.EIO}); err != nil {
			t.Fatal(err)
		}
		// The injected errno surfaces to the caller as a plain error …
		if _, err := s.Write(fd, []byte("x")); !errors.Is(err, core.EIO) {
			t.Fatalf("write under errno injection = %v, want EIO", err)
		}
		// … and the very next call succeeds: no reboot, no fail-stop.
		if _, err := s.Write(fd, []byte("ok")); err != nil {
			t.Fatalf("write after errno injection: %v", err)
		}
		data, err := s.Pread(fd, 10, 0)
		if err != nil || string(data) != "ok" {
			t.Fatalf("content = %q, %v", data, err)
		}
	})
	st := inst.Runtime().Stats()
	if st.Failures != 0 || st.Hangs != 0 {
		t.Fatalf("errno injection triggered recovery: failures=%d hangs=%d", st.Failures, st.Hangs)
	}
	if n := len(inst.Runtime().Reboots()); n != 0 {
		t.Fatalf("errno injection caused %d reboots", n)
	}
}

func TestCrashAfterNthInvocation(t *testing.T) {
	inst := withInstance(t, core.DaSConfig(), nil, func(s *unikernel.Sys, inj *Injector) {
		if err := s.Instance().Runtime().ArmFaultSpec("process", "getpid", core.FaultSpec{Kind: core.FaultCrash, After: 3}); err != nil {
			t.Fatal(err)
		}
		// The first two invocations execute normally.
		for i := 0; i < 2; i++ {
			if _, err := s.Getpid(); err != nil {
				t.Fatalf("getpid %d before fault: %v", i, err)
			}
			if got := s.Instance().Runtime().Stats().Failures; got != 0 {
				t.Fatalf("fault fired early: failures=%d after call %d", got, i)
			}
		}
		// The third crashes the component; the retry succeeds.
		if _, err := s.Getpid(); err != nil {
			t.Fatalf("getpid across nth-invocation crash: %v", err)
		}
	})
	if got := inst.Runtime().Stats().Failures; got != 1 {
		t.Fatalf("failures = %d, want 1", got)
	}
}

func TestWildcardFaultFiresOnAnyFunction(t *testing.T) {
	inst := withInstance(t, core.DaSConfig(), nil, func(s *unikernel.Sys, inj *Injector) {
		rt := s.Instance().Runtime()
		if err := rt.ArmFaultSpec("process", core.AnyFunction, core.FaultSpec{Kind: core.FaultCrash}); err != nil {
			t.Fatal(err)
		}
		if got := rt.PendingFaults(); len(got) != 1 || got[0] != "process.*" {
			t.Fatalf("pending faults = %v", got)
		}
		if _, err := s.Getpid(); err != nil {
			t.Fatalf("getpid across wildcard crash: %v", err)
		}
		if got := rt.PendingFaults(); len(got) != 0 {
			t.Fatalf("fault still armed after firing: %v", got)
		}
	})
	if got := inst.Runtime().Stats().Failures; got != 1 {
		t.Fatalf("failures = %d, want 1", got)
	}
}

func TestLeakAndRejuvenationReclaims(t *testing.T) {
	withInstance(t, core.DaSConfig(), nil, func(s *unikernel.Sys, inj *Injector) {
		before := heapStats(t, inj, "vfs")
		leaked, err := inj.LeakBytes("vfs", 256<<10, 512)
		if err != nil {
			t.Fatal(err)
		}
		if leaked < 256<<10 {
			t.Fatalf("leaked only %d", leaked)
		}
		aged := heapStats(t, inj, "vfs")
		if aged.AllocatedBytes <= before.AllocatedBytes {
			t.Fatal("leak not visible in allocator stats")
		}
		// Rejuvenation clears the aged allocator back to (near) the
		// checkpoint image.
		if err := s.Reboot("vfs"); err != nil {
			t.Fatal(err)
		}
		fresh := heapStats(t, inj, "vfs")
		if fresh.AllocatedBytes >= aged.AllocatedBytes {
			t.Fatalf("reboot did not reclaim leak: %d >= %d", fresh.AllocatedBytes, aged.AllocatedBytes)
		}
	})
}

func TestFragmentationObservableAndCleared(t *testing.T) {
	withInstance(t, core.DaSConfig(), nil, func(s *unikernel.Sys, inj *Injector) {
		if err := inj.Fragment("lwip", 2000, 64); err != nil {
			t.Fatal(err)
		}
		aged := heapStats(t, inj, "lwip")
		if aged.ExternalFragmentation() == 0 {
			t.Fatal("no fragmentation observed")
		}
		if err := s.Reboot("lwip"); err != nil {
			t.Fatal(err)
		}
		fresh := heapStats(t, inj, "lwip")
		if fresh.ExternalFragmentation() >= aged.ExternalFragmentation() {
			t.Fatalf("reboot did not clear fragmentation: %v >= %v", fresh.ExternalFragmentation(), aged.ExternalFragmentation())
		}
	})
}

// TestWildWriteConfinedAcrossConfigs exercises saboteur containment in
// all four VampOS configurations, including the merged groups: merging
// components into one protection domain must not open the merged arena
// (or anything else) to a stray store from another domain.
func TestWildWriteConfinedAcrossConfigs(t *testing.T) {
	cases := []struct {
		name   string
		cfg    core.Config
		victim string
	}{
		{"noop", core.NoopConfig(), "vfs"},
		{"das", core.DaSConfig(), "vfs"},
		{"fsm-merged-fs", core.FSmConfig(), "9pfs"},
		{"fsm-vfs", core.FSmConfig(), "vfs"},
		{"netm-merged-net", core.NETmConfig(), "lwip"},
		{"netm-netdev", core.NETmConfig(), "netdev"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sab := NewSaboteur()
			inst := withInstance(t, tc.cfg, []core.Component{sab}, func(s *unikernel.Sys, inj *Injector) {
				rt := s.Instance().Runtime()
				victimHeap, ok := rt.ComponentHeap(tc.victim)
				if !ok {
					t.Fatalf("no %s heap", tc.victim)
				}
				victimAddr, err := victimHeap.Alloc(64)
				if err != nil {
					t.Fatal(err)
				}
				memObj := rt.Memory()
				if err := memObj.HostWrite(victimAddr, []byte("precious")); err != nil {
					t.Fatal(err)
				}
				faults0 := memObj.Faults()
				// The wild write into the victim's (possibly merged) arena
				// must fault, not corrupt.
				_, err = s.Ctx().Call("saboteur", "wild_write", uint64(victimAddr), 0xFF)
				if err == nil || !strings.Contains(err.Error(), "EFAULT") {
					t.Fatalf("wild write = %v, want EFAULT", err)
				}
				got := make([]byte, 8)
				if err := memObj.HostRead(victimAddr, got); err != nil {
					t.Fatal(err)
				}
				if string(got) != "precious" {
					t.Fatalf("victim memory corrupted: %q", got)
				}
				if memObj.Faults() == faults0 {
					t.Fatal("no protection fault recorded")
				}
				// The victim component is untouched and keeps serving.
				if _, err := s.Open("/alive", unikernel.OCreate|unikernel.ORdwr); err != nil {
					t.Fatalf("victim-side syscall after wild write: %v", err)
				}
			})
			// Only the saboteur misbehaved: no component failed or rebooted.
			st := inst.Runtime().Stats()
			if st.Failures != 0 || st.Hangs != 0 {
				t.Fatalf("wild write cascaded: failures=%d hangs=%d", st.Failures, st.Hangs)
			}
			for _, comp := range inst.Runtime().Components() {
				cs, ok := inst.Runtime().ComponentStats(comp)
				if ok && (cs.Failures != 0 || cs.Reboots != 0) {
					t.Fatalf("component %s disturbed: %+v", comp, cs)
				}
			}
		})
	}
}

func TestWildWriteConfinedByProtectionDomains(t *testing.T) {
	sab := NewSaboteur()
	withInstance(t, core.DaSConfig(), []core.Component{sab}, func(s *unikernel.Sys, inj *Injector) {
		// A write inside the saboteur's own arena succeeds.
		if _, err := s.Ctx().Call("saboteur", "own_write"); err != nil {
			t.Fatalf("own_write: %v", err)
		}
		// Find a victim address: the VFS arena.
		victimHeap, ok := s.Instance().Runtime().ComponentHeap("vfs")
		if !ok {
			t.Fatal("no vfs heap")
		}
		victimAddr, err := victimHeap.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		memObj := s.Instance().Runtime().Memory()
		if err := memObj.HostWrite(victimAddr, []byte("precious")); err != nil {
			t.Fatal(err)
		}
		// The wild write must fault, not corrupt.
		_, err = s.Ctx().Call("saboteur", "wild_write", uint64(victimAddr), 0xFF)
		if err == nil || !strings.Contains(err.Error(), "EFAULT") {
			t.Fatalf("wild write = %v, want EFAULT", err)
		}
		got := make([]byte, 8)
		if err := memObj.HostRead(victimAddr, got); err != nil {
			t.Fatal(err)
		}
		if string(got) != "precious" {
			t.Fatalf("victim memory corrupted: %q", got)
		}
		if memObj.Faults() == 0 {
			t.Fatal("no protection fault recorded")
		}
	})
}

func TestWildWriteCorruptsInVanilla(t *testing.T) {
	// The contrast case: vanilla Unikraft has no protection domains, so
	// the same stray store lands.
	sab := NewSaboteur()
	withInstance(t, core.VanillaConfig(), []core.Component{sab}, func(s *unikernel.Sys, inj *Injector) {
		victimHeap, ok := s.Instance().Runtime().ComponentHeap("vfs")
		if !ok {
			t.Fatal("no vfs heap")
		}
		victimAddr, err := victimHeap.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		memObj := s.Instance().Runtime().Memory()
		if err := memObj.HostWrite(victimAddr, []byte{0}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Ctx().Call("saboteur", "wild_write", uint64(victimAddr), 0x42); err != nil {
			t.Fatalf("vanilla wild write failed: %v", err)
		}
		got := make([]byte, 1)
		if err := memObj.HostRead(victimAddr, got); err != nil {
			t.Fatal(err)
		}
		if got[0] != 0x42 {
			t.Fatal("vanilla wild write did not land (unexpected isolation)")
		}
	})
}

func TestDeterministicCrashFailsStop(t *testing.T) {
	withInstance(t, core.DaSConfig(), nil, func(s *unikernel.Sys, inj *Injector) {
		// Arm the same fault twice in a row: the retry re-triggers it,
		// modelling a deterministic bug → fail-stop (§II-B). The exact
		// fault fires on the first invocation; the any-function fault,
		// consulted only once no exact one is armed, fires on the retry.
		rt := s.Instance().Runtime()
		if err := rt.ArmFault("sysinfo", "uname", core.FaultCrash); err != nil {
			t.Fatal(err)
		}
		if err := rt.ArmFault("sysinfo", core.AnyFunction, core.FaultCrash); err != nil {
			t.Fatal(err)
		}
		_, err := s.Uname()
		if !errors.Is(err, core.ErrComponentFailed) {
			t.Fatalf("deterministic crash = %v, want ErrComponentFailed", err)
		}
	})
}

// heapStats reads a component's allocator statistics from its
// ComponentStats.
func heapStats(t *testing.T, inj *Injector, component string) mem.BuddyStats {
	t.Helper()
	cs, ok := inj.rt.ComponentStats(component)
	if !ok {
		t.Fatalf("no component %q", component)
	}
	return cs.Heap
}
