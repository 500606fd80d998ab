package unikernel

import (
	"bytes"
	"errors"
	"strconv"
	"testing"
	"time"

	"vampos/internal/core"
	"vampos/internal/lwip"
	"vampos/internal/sched"
)

func fullConfig(coreCfg core.Config) Config {
	coreCfg.MaxVirtualTime = time.Hour
	return Config{Core: coreCfg, FS: true, Net: true, Sysinfo: true}
}

// runInstance builds and runs an instance, failing the test on error.
func runInstance(t *testing.T, cfg Config, control func(*Sys)) *Instance {
	t.Helper()
	inst, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(func(s *Sys) {
		control(s)
		s.Stop()
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return inst
}

func configsUnderTest() map[string]core.Config {
	return map[string]core.Config{
		"vanilla": core.VanillaConfig(),
		"noop":    core.NoopConfig(),
		"das":     core.DaSConfig(),
		"fsm":     core.FSmConfig(),
		"netm":    core.NETmConfig(),
	}
}

func TestBootAllConfigurations(t *testing.T) {
	for name, cc := range configsUnderTest() {
		t.Run(name, func(t *testing.T) {
			runInstance(t, fullConfig(cc), func(s *Sys) {
				pid, err := s.Getpid()
				if err != nil || pid != 1 {
					t.Errorf("Getpid = %d, %v", pid, err)
				}
				u, err := s.Uname()
				if err != nil || u == "" {
					t.Errorf("Uname = %q, %v", u, err)
				}
				if _, err := s.Getuid(); err != nil {
					t.Errorf("Getuid: %v", err)
				}
				if _, err := s.ClockGettime(); err != nil {
					t.Errorf("ClockGettime: %v", err)
				}
			})
		})
	}
}

func TestFileIOAcrossConfigurations(t *testing.T) {
	for name, cc := range configsUnderTest() {
		t.Run(name, func(t *testing.T) {
			runInstance(t, fullConfig(cc), func(s *Sys) {
				if err := s.Mkdir("/data"); err != nil {
					t.Fatalf("mkdir: %v", err)
				}
				fd, err := s.Open("/data/test.txt", OCreate|ORdwr)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				if _, err := s.Write(fd, []byte("hello ")); err != nil {
					t.Fatalf("write: %v", err)
				}
				if _, err := s.Write(fd, []byte("vampos")); err != nil {
					t.Fatalf("write2: %v", err)
				}
				if off, err := s.Lseek(fd, 0, SeekSet); err != nil || off != 0 {
					t.Fatalf("lseek: %d, %v", off, err)
				}
				data, _, err := s.Read(fd, 100)
				if err != nil || string(data) != "hello vampos" {
					t.Fatalf("read back %q, %v", data, err)
				}
				if err := s.Fsync(fd); err != nil {
					t.Fatalf("fsync: %v", err)
				}
				if err := s.Close(fd); err != nil {
					t.Fatalf("close: %v", err)
				}
				// Host sees the durable content.
				got, err := s.HostFS().ReadFile("/data/test.txt")
				if err != nil || string(got) != "hello vampos" {
					t.Fatalf("host view %q, %v", got, err)
				}
			})
		})
	}
}

func TestFileSemantics(t *testing.T) {
	runInstance(t, fullConfig(core.DaSConfig()), func(s *Sys) {
		// ENOENT without O_CREATE.
		if _, err := s.Open("/nope", ORdonly); !errors.Is(err, core.ENOENT) {
			t.Errorf("open missing = %v, want ENOENT", err)
		}
		// SEEK_END and pread/pwrite.
		fd, err := s.Open("/f", OCreate|ORdwr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Write(fd, []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
		off, err := s.Lseek(fd, -4, SeekEnd)
		if err != nil || off != 6 {
			t.Fatalf("SEEK_END-4 = %d, %v", off, err)
		}
		data, _, err := s.Read(fd, 10)
		if err != nil || string(data) != "6789" {
			t.Fatalf("read after seek = %q, %v", data, err)
		}
		if _, err := s.Pwrite(fd, []byte("AB"), 2); err != nil {
			t.Fatal(err)
		}
		got, err := s.Pread(fd, 10, 0)
		if err != nil || string(got) != "01AB456789" {
			t.Fatalf("pread = %q, %v", got, err)
		}
		// O_APPEND positions at EOF.
		afd, err := s.Open("/f", OWronly|OAppend)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Write(afd, []byte("X")); err != nil {
			t.Fatal(err)
		}
		if size, _, err := s.Stat("/f"); err != nil || size != 11 {
			t.Fatalf("size after append = %d, %v", size, err)
		}
		// Directories.
		if err := s.Mkdir("/sub"); err != nil {
			t.Fatal(err)
		}
		names, err := s.ReadDir("/")
		if err != nil {
			t.Fatal(err)
		}
		if len(names) < 2 {
			t.Fatalf("readdir / = %v", names)
		}
		if err := s.Unlink("/f"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Open("/f", ORdonly); !errors.Is(err, core.ENOENT) {
			t.Errorf("open after unlink = %v", err)
		}
		_ = s.Close(fd)
		_ = s.Close(afd)
	})
}

func TestPipes(t *testing.T) {
	runInstance(t, fullConfig(core.DaSConfig()), func(s *Sys) {
		r, w, err := s.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Write(w, []byte("through the pipe")); err != nil {
			t.Fatal(err)
		}
		data, _, err := s.Read(r, 100)
		if err != nil || string(data) != "through the pipe" {
			t.Fatalf("pipe read = %q, %v", data, err)
		}
		if err := s.Close(w); err != nil {
			t.Fatal(err)
		}
		_, eof, err := s.Read(r, 10)
		if err != nil || !eof {
			t.Fatalf("pipe EOF: eof=%v err=%v", eof, err)
		}
	})
}

// startEchoServer runs a tiny echo server on port 7777 in app threads.
func startEchoServer(t *testing.T, s *Sys) {
	t.Helper()
	lfd, err := s.Socket()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Bind(lfd, 7777); err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(lfd, 16); err != nil {
		t.Fatal(err)
	}
	s.Go("echo/acceptor", func(as *Sys) {
		for {
			cfd, err := as.Accept(lfd)
			if err != nil {
				return
			}
			as.Go("echo/conn"+strconv.Itoa(cfd), func(cs *Sys) {
				for {
					data, eof, err := cs.Recv(cfd, 4096)
					if err != nil || eof {
						_ = cs.Close(cfd)
						return
					}
					if _, err := cs.Send(cfd, data); err != nil {
						_ = cs.Close(cfd)
						return
					}
				}
			})
		}
	})
}

func TestNetworkEchoAcrossConfigurations(t *testing.T) {
	for name, cc := range configsUnderTest() {
		t.Run(name, func(t *testing.T) {
			runInstance(t, fullConfig(cc), func(s *Sys) {
				startEchoServer(t, s)
				peer := s.NewPeer()
				th := s.Ctx().Thread()
				conn, err := peer.Dial(th, 7777, time.Second)
				if err != nil {
					t.Fatalf("dial: %v", err)
				}
				msg := []byte("ping over tcp")
				if err := conn.Send(th, msg); err != nil {
					t.Fatalf("send: %v", err)
				}
				got, err := conn.RecvExactly(th, len(msg), time.Second)
				if err != nil || !bytes.Equal(got, msg) {
					t.Fatalf("echo = %q, %v", got, err)
				}
				conn.Close(th)
			})
		})
	}
}

func TestComponentRebootKeepsFileState(t *testing.T) {
	runInstance(t, fullConfig(core.DaSConfig()), func(s *Sys) {
		fd, err := s.Open("/state.txt", OCreate|ORdwr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Write(fd, []byte("abcdef")); err != nil {
			t.Fatal(err)
		}
		// Reboot VFS: the fd table and offset must survive via
		// checkpoint + encapsulated replay.
		if err := s.Reboot("vfs"); err != nil {
			t.Fatalf("reboot vfs: %v", err)
		}
		if _, err := s.Write(fd, []byte("ghi")); err != nil {
			t.Fatalf("write after vfs reboot: %v", err)
		}
		// Reboot 9PFS: the fid table must be rebuilt consistently.
		if err := s.Reboot("9pfs"); err != nil {
			t.Fatalf("reboot 9pfs: %v", err)
		}
		data, err := s.Pread(fd, 100, 0)
		if err != nil || string(data) != "abcdefghi" {
			t.Fatalf("content after reboots = %q, %v", data, err)
		}
		if err := s.Close(fd); err != nil {
			t.Fatal(err)
		}
		rt := s.Instance().Runtime()
		if got := len(rt.Reboots()); got != 2 {
			t.Fatalf("reboot records = %d, want 2", got)
		}
	})
}

// TestMergedRebootKeepsFileState: in FSm, VFS and 9PFS reboot together,
// and the composite must come back with both its fd and its fid table.
// The warm file's fid is not the lowest free one (the file opened before
// it is closed), so a fid rebuilt by lowest-free allocation instead of
// from 9PFS's own log would name nothing on the host.
func TestMergedRebootKeepsFileState(t *testing.T) {
	runInstance(t, fullConfig(core.FSmConfig()), func(s *Sys) {
		first, err := s.Open("/first.txt", OCreate|ORdwr)
		if err != nil {
			t.Fatal(err)
		}
		fd, err := s.Open("/warm.txt", OCreate|ORdwr)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(first); err != nil {
			t.Fatal(err)
		}
		for _, w := range []string{"abc", "def"} {
			if _, err := s.Write(fd, []byte(w)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Reboot("vfs"); err != nil {
			t.Fatalf("reboot vfs in FSm: %v", err)
		}
		if _, err := s.Write(fd, []byte("ghi")); err != nil {
			t.Fatalf("write on the warm fd after the composite reboot: %v", err)
		}
		data, err := s.Pread(fd, 100, 0)
		if err != nil || string(data) != "abcdefghi" {
			t.Fatalf("content after the composite reboot = %q, %v", data, err)
		}
		rt := s.Instance().Runtime()
		if rec := rt.Reboots(); len(rec) != 1 || rec[0].ReplayedEntries == 0 {
			t.Fatalf("reboot records = %+v, want one that replayed", rec)
		}
	})
}

// TestMergedReplayKeepsSameSeqOrder: an O_APPEND open in FSm leaves two
// records with one seq — 9PFS's uk_9pfs_open and VFS's open, whose
// replay stats the fid 9PFS's record re-opens to restore the offset at
// the file's end. The composite's replay slice (8 files: 8 + 8 opens
// and 8 writes, over sort.Slice's 12-element insertion-sort cut-off)
// must keep the callee's record first at each seq; replayed the other
// way round, an fd's offset restarts at 0 and the next write lands on
// the file's head.
func TestMergedReplayKeepsSameSeqOrder(t *testing.T) {
	const files = 8
	cfg := fullConfig(core.FSmConfig())
	inst, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	name := func(i int) string { return "/append" + strconv.Itoa(i) }
	for i := 0; i < files; i++ {
		if err := inst.Host().FS().WriteFile(name(i), []byte("head")); err != nil {
			t.Fatal(err)
		}
	}
	err = inst.Run(func(s *Sys) {
		defer s.Stop()
		fds := make([]int, files)
		for i := range fds {
			fd, err := s.Open(name(i), OAppend|ORdwr)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Write(fd, []byte("+")); err != nil {
				t.Fatal(err)
			}
			fds[i] = fd
		}
		if err := s.Reboot("vfs"); err != nil {
			t.Fatalf("reboot vfs in FSm: %v", err)
		}
		if rec := s.Instance().Runtime().Reboots(); len(rec) != 1 || rec[0].ReplayedEntries <= 12 {
			t.Fatalf("reboot records = %+v, want one replaying more than 12 entries", rec)
		}
		for i, fd := range fds {
			if _, err := s.Write(fd, []byte("tail")); err != nil {
				t.Fatal(err)
			}
			data, err := s.Pread(fd, 64, 0)
			if err != nil || string(data) != "head+tail" {
				t.Errorf("%s after the composite reboot = %q, %v; want \"head+tail\"", name(i), data, err)
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestLWIPRebootKeepsConnections(t *testing.T) {
	// The heart of Table V: a live TCP connection survives an LWIP
	// reboot because the extracted seq/ACK state is reinstalled.
	runInstance(t, fullConfig(core.DaSConfig()), func(s *Sys) {
		startEchoServer(t, s)
		peer := s.NewPeer()
		th := s.Ctx().Thread()
		conn, err := peer.Dial(th, 7777, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(th, []byte("before")); err != nil {
			t.Fatal(err)
		}
		if got, err := conn.RecvExactly(th, 6, time.Second); err != nil || string(got) != "before" {
			t.Fatalf("pre-reboot echo = %q, %v", got, err)
		}
		if err := s.Reboot("lwip"); err != nil {
			t.Fatalf("reboot lwip: %v", err)
		}
		if err := conn.Send(th, []byte("after!")); err != nil {
			t.Fatal(err)
		}
		got, err := conn.RecvExactly(th, 6, time.Second)
		if err != nil || string(got) != "after!" {
			t.Fatalf("post-reboot echo = %q, %v (state %v)", got, err, conn.State())
		}
		if st := conn.State(); st != lwip.StateEstablished {
			t.Fatalf("connection is %v across LWIP reboot, want established (not reset)", st)
		}
		conn.Close(th)
	})
}

func TestStatelessComponentReboot(t *testing.T) {
	runInstance(t, fullConfig(core.DaSConfig()), func(s *Sys) {
		if err := s.Reboot("process"); err != nil {
			t.Fatal(err)
		}
		if pid, err := s.Getpid(); err != nil || pid != 1 {
			t.Fatalf("getpid after reboot = %d, %v", pid, err)
		}
	})
}

func TestVirtioRebootRefused(t *testing.T) {
	runInstance(t, fullConfig(core.DaSConfig()), func(s *Sys) {
		if err := s.Reboot("virtio"); !errors.Is(err, core.ErrUnrebootable) {
			t.Fatalf("reboot virtio = %v, want ErrUnrebootable", err)
		}
	})
}

func TestInjectedCrashRecoversTransparently(t *testing.T) {
	inst := runInstance(t, fullConfig(core.DaSConfig()), func(s *Sys) {
		fd, err := s.Open("/crash.txt", OCreate|ORdwr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Write(fd, []byte("x")); err != nil {
			t.Fatal(err)
		}
		// Crash PROCESS mid-call: the syscall retries transparently.
		if err := s.Instance().Runtime().ArmFault("process", "getpid", core.FaultCrash); err != nil {
			t.Fatal(err)
		}
		pid, err := s.Getpid()
		if err != nil || pid != 1 {
			t.Fatalf("getpid across crash = %d, %v", pid, err)
		}
		// The file layer was untouched by the PROCESS failure.
		if data, err := s.Pread(fd, 10, 0); err != nil || string(data) != "x" {
			t.Fatalf("file after crash = %q, %v", data, err)
		}
	})
	if inst.Runtime().Stats().Failures != 1 {
		t.Fatalf("failures = %d, want 1", inst.Runtime().Stats().Failures)
	}
	reboots := inst.Runtime().Reboots()
	if len(reboots) != 1 || reboots[0].Group != "process" {
		t.Fatalf("reboots = %+v", reboots)
	}
}

func TestFullRebootLosesConnectionsAndFiles(t *testing.T) {
	runInstance(t, fullConfig(core.DaSConfig()), func(s *Sys) {
		app := &echoApp{}
		if err := s.StartApp(app); err != nil {
			t.Fatal(err)
		}
		peer := s.NewPeer()
		th := s.Ctx().Thread()
		conn, err := peer.Dial(th, 7777, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(th, []byte("hi")); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.RecvExactly(th, 2, time.Second); err != nil {
			t.Fatal(err)
		}
		before := s.Elapsed()
		if err := s.FullReboot(); err != nil {
			t.Fatalf("full reboot: %v", err)
		}
		downtime := s.Elapsed() - before
		if downtime < BootDelay {
			t.Fatalf("downtime %v below boot delay", downtime)
		}
		// The old connection is dead (reset or timed out), as the
		// paper's siege clients observe.
		_ = conn.Send(th, []byte("zombie"))
		if _, err := conn.RecvExactly(th, 6, 100*time.Millisecond); err == nil {
			t.Fatal("stale connection still served after full reboot")
		}
		// New connections reach the restarted app.
		conn2, err := peer.Dial(th, 7777, 2*time.Second)
		if err != nil {
			t.Fatalf("dial after full reboot: %v", err)
		}
		if err := conn2.Send(th, []byte("again")); err != nil {
			t.Fatal(err)
		}
		if got, err := conn2.RecvExactly(th, 5, time.Second); err != nil || string(got) != "again" {
			t.Fatalf("echo after full reboot = %q, %v", got, err)
		}
		conn2.Close(th)
		if app.mains != 2 {
			t.Fatalf("app Main ran %d times, want 2", app.mains)
		}
	})
}

// echoApp is the Echo application as an App for reboot lifecycle tests.
type echoApp struct {
	mains int
}

func (e *echoApp) Name() string { return "echo" }

func (e *echoApp) Main(s *Sys) error {
	e.mains++
	lfd, err := s.Socket()
	if err != nil {
		return err
	}
	if err := s.Bind(lfd, 7777); err != nil {
		return err
	}
	if err := s.Listen(lfd, 16); err != nil {
		return err
	}
	s.Go("echo/acceptor", func(as *Sys) {
		for {
			cfd, err := as.Accept(lfd)
			if err != nil {
				return
			}
			as.Go("echo/conn", func(cs *Sys) {
				for {
					data, eof, err := cs.Recv(cfd, 4096)
					if err != nil || eof {
						_ = cs.Close(cfd)
						return
					}
					if _, err := cs.Send(cfd, data); err != nil {
						return
					}
				}
			})
		}
	})
	return nil
}

func TestRejuvenationUnderLoadZeroFailures(t *testing.T) {
	// Table V in miniature: rolling component reboots while a client
	// hammers the echo server; every request must succeed.
	runInstance(t, fullConfig(core.DaSConfig()), func(s *Sys) {
		startEchoServer(t, s)
		peer := s.NewPeer()
		var successes, failures int
		clientDone := false
		s.GoHost("siege", func(th *sched.Thread) {
			conn, err := peer.Dial(th, 7777, 2*time.Second)
			if err != nil {
				t.Errorf("dial: %v", err)
				clientDone = true
				return
			}
			payload := []byte("request-000")
			for i := 0; i < 60; i++ {
				if err := conn.Send(th, payload); err != nil {
					failures++
					continue
				}
				if _, err := conn.RecvExactly(th, len(payload), 2*time.Second); err != nil {
					failures++
					continue
				}
				successes++
			}
			conn.Close(th)
			clientDone = true
		})
		targets := []string{"vfs", "lwip", "9pfs", "netdev", "process"}
		for i := 0; !clientDone; i++ {
			if err := s.Reboot(targets[i%len(targets)]); err != nil {
				t.Fatalf("rejuvenate %s: %v", targets[i%len(targets)], err)
			}
			s.Sleep(200 * time.Microsecond)
		}
		if failures != 0 {
			t.Fatalf("%d/%d requests failed across rolling rejuvenation", failures, failures+successes)
		}
		if successes != 60 {
			t.Fatalf("successes = %d, want 60", successes)
		}
	})
}
