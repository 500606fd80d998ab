package ninep_test

import (
	"errors"
	"testing"
	"time"

	"vampos/internal/core"
	"vampos/internal/unikernel"
)

// TestAppendOpenFailsWhenStatFails: an O_APPEND fd starts at the file's
// end, so an open whose size query fails must fail too, leaving no fd
// behind and handing its fid back to the server, rather than install an
// fd whose first write lands on the file's head.
func TestAppendOpenFailsWhenStatFails(t *testing.T) {
	cfg := core.DaSConfig()
	cfg.MaxVirtualTime = time.Hour
	inst, err := unikernel.New(unikernel.Config{Core: cfg, FS: true})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if err := inst.Host().FS().WriteFile("/log", []byte("head")); err != nil {
		t.Fatal(err)
	}
	err = inst.Run(func(s *unikernel.Sys) {
		defer s.Stop()
		srv := inst.Host().Server() // attached at boot
		// Learn the lowest free fd, the one the failing open will try.
		free, err := s.Open("/log", unikernel.ORdonly)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(free); err != nil {
			t.Fatal(err)
		}
		fids := srv.Fids()
		if err := s.Instance().Runtime().ArmFaultSpec("9pfs", "uk_9pfs_stat",
			core.FaultSpec{Kind: core.FaultErrno, Errno: core.EIO}); err != nil {
			t.Fatal(err)
		}
		if fd, err := s.Open("/log", unikernel.OAppend|unikernel.OWronly); !errors.Is(err, core.EIO) {
			t.Fatalf("append open with stat failing = fd %d, %v; want EIO", fd, err)
		}
		if got := srv.Fids(); got != fids {
			t.Errorf("server holds %d fids after the failed open, %d before", got, fids)
		}
		if _, err := s.Write(free, []byte("x")); !errors.Is(err, core.EBADF) {
			t.Errorf("write to fd %d after the failed open = %v, want EBADF", free, err)
		}
		fd, err := s.Open("/log", unikernel.OAppend|unikernel.OWronly)
		if err != nil || fd != free {
			t.Fatalf("open after the failed one = fd %d, %v; want fd %d", fd, err, free)
		}
		if _, err := s.Write(fd, []byte("+tail")); err != nil {
			t.Fatal(err)
		}
		data, err := inst.Host().FS().ReadFile("/log")
		if err != nil || string(data) != "head+tail" {
			t.Errorf("/log = %q, %v; want \"head+tail\"", data, err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
