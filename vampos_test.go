package vampos_test

import (
	"errors"
	"testing"
	"time"

	"vampos"
	"vampos/internal/core"
	"vampos/internal/unikernel"
)

// The doc-comment quickstart, as a test: boot, write, reboot VFS, read.
func TestQuickstartFlow(t *testing.T) {
	cfg := vampos.Config{Core: vampos.DaSConfig(), FS: true, Net: true, Sysinfo: true}
	cfg.Core.MaxVirtualTime = time.Hour
	inst, err := vampos.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = inst.Run(func(s *vampos.Sys) {
		defer s.Stop()
		fd, err := s.Open("/hello.txt", vampos.OCreate|vampos.ORdwr)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if _, err := s.Write(fd, []byte("hi")); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := s.Reboot("vfs"); err != nil {
			t.Fatalf("reboot: %v", err)
		}
		data, err := s.Pread(fd, 2, 0)
		if err != nil || string(data) != "hi" {
			t.Fatalf("pread after reboot = %q, %v", data, err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Runtime().Reboots()) != 1 {
		t.Fatal("no reboot recorded")
	}
}

func TestFacadeInjector(t *testing.T) {
	cfg := vampos.Config{Core: vampos.DaSConfig(), FS: true, Net: true, Sysinfo: true}
	cfg.Core.MaxVirtualTime = time.Hour
	inst, err := vampos.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = inst.Run(func(s *vampos.Sys) {
		defer s.Stop()
		if cs, ok := inst.Runtime().ComponentStats("vfs"); !ok || cs.Heap.TotalBytes == 0 {
			t.Fatal("no vfs heap")
		}
		if err := inst.Runtime().ArmFault("process", "getpid", vampos.FaultCrash); err != nil {
			t.Fatal(err)
		}
		if pid, err := s.Getpid(); err != nil || pid != 1 {
			t.Fatalf("getpid across crash = %d, %v", pid, err)
		}
		if err := s.Reboot("virtio"); !errors.Is(err, core.ErrUnrebootable) {
			t.Fatalf("virtio reboot = %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestErrnoComparability(t *testing.T) {
	cfg := vampos.Config{Core: vampos.DaSConfig(), FS: true, Net: true, Sysinfo: true}
	cfg.Core.MaxVirtualTime = time.Hour
	inst, err := vampos.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = inst.Run(func(s *vampos.Sys) {
		defer s.Stop()
		if _, err := s.Open("/missing", unikernel.ORdonly); !errors.Is(err, core.ENOENT) {
			t.Errorf("open missing = %v, want ENOENT", err)
		}
		if err := s.Close(999); !errors.Is(err, core.EBADF) {
			t.Errorf("close bad fd = %v, want EBADF", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
