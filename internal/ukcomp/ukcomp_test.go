package ukcomp

import (
	"testing"
	"time"

	"vampos/internal/core"
)

func runAll(t *testing.T, main func(c *core.Ctx, p *Process)) *core.Runtime {
	t.Helper()
	cfg := core.DaSConfig()
	cfg.MaxVirtualTime = time.Hour
	rt := core.NewRuntime(cfg)
	p := NewProcess()
	for _, comp := range []core.Component{p, NewSysinfo(), NewUser(), NewTimer()} {
		if err := rt.Register(comp); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Run(func(c *core.Ctx) { main(c, p) }); err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestProcessExports(t *testing.T) {
	runAll(t, func(c *core.Ctx, p *Process) {
		rets, err := c.Call("process", "getpid")
		if err != nil {
			t.Fatal(err)
		}
		if pid, _ := rets.Int(0); pid != 1 {
			t.Fatalf("getpid = %d", pid)
		}
		rets, err = c.Call("process", "getppid")
		if err != nil {
			t.Fatal(err)
		}
		if ppid, _ := rets.Int(0); ppid != 0 {
			t.Fatalf("getppid = %d", ppid)
		}
	})
}

func TestSysinfoUname(t *testing.T) {
	runAll(t, func(c *core.Ctx, p *Process) {
		rets, err := c.Call("sysinfo", "uname")
		if err != nil {
			t.Fatal(err)
		}
		if sys, _ := rets.Str(0); sys != "VampOS" {
			t.Fatalf("sysname = %q", sys)
		}
	})
}

func TestUserIDs(t *testing.T) {
	runAll(t, func(c *core.Ctx, p *Process) {
		for _, fn := range []string{"getuid", "geteuid", "getgid"} {
			rets, err := c.Call("user", fn)
			if err != nil {
				t.Fatal(err)
			}
			if id, _ := rets.Int(0); id != 0 {
				t.Fatalf("%s = %d, want 0 (unikernels run as root)", fn, id)
			}
		}
	})
}

func TestTimerTracksVirtualClock(t *testing.T) {
	runAll(t, func(c *core.Ctx, p *Process) {
		r1, err := c.Call("timer", "uptime_ns")
		if err != nil {
			t.Fatal(err)
		}
		t1, _ := r1.Int64(0)
		c.Sleep(5 * time.Millisecond)
		r2, err := c.Call("timer", "uptime_ns")
		if err != nil {
			t.Fatal(err)
		}
		t2, _ := r2.Int64(0)
		if t2-t1 < int64(5*time.Millisecond) {
			t.Fatalf("uptime advanced %dns across a 5ms sleep", t2-t1)
		}
		rets, err := c.Call("timer", "clock_gettime")
		if err != nil {
			t.Fatal(err)
		}
		if sec, _ := rets.Int64(0); sec == 0 {
			t.Fatal("clock_gettime returned the zero epoch")
		}
	})
}

func TestProcessRebootReinitialises(t *testing.T) {
	rt := runAll(t, func(c *core.Ctx, p *Process) {
		if err := c.Reboot("process"); err != nil {
			t.Fatal(err)
		}
		if p.Inits() != 2 {
			t.Fatalf("inits = %d, want 2", p.Inits())
		}
	})
	cs, _ := rt.ComponentStats("process")
	if cs.Reboots != 1 {
		t.Fatalf("reboots = %d", cs.Reboots)
	}
}

func TestProcessCrashHook(t *testing.T) {
	runAll(t, func(c *core.Ctx, p *Process) {
		if err := c.Runtime().ArmFault("process", "getpid", core.FaultCrash); err != nil {
			t.Fatal(err)
		}
		// The crash is recovered transparently by the reboot + retry.
		rets, err := c.Call("process", "getpid")
		if err != nil {
			t.Fatal(err)
		}
		if pid, _ := rets.Int(0); pid != 1 {
			t.Fatalf("getpid after crash = %d", pid)
		}
	})
}
