package vfs

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"vampos/internal/ckpt"
	"vampos/internal/core"
	"vampos/internal/msg"
)

// stub9pfs is an in-memory stand-in for the real 9PFS component, giving
// the VFS unit tests full control without a host or virtio stack.
type stub9pfs struct {
	files   map[string][]byte
	fids    map[int]string
	nextFid int
	calls   map[string]int
}

func newStub9pfs() *stub9pfs {
	return &stub9pfs{
		files: make(map[string][]byte),
		fids:  make(map[int]string),
		calls: make(map[string]int),
	}
}

func (s *stub9pfs) Describe() core.Descriptor {
	return core.Descriptor{Name: "9pfs", Stateful: true, HeapPages: 16, DomainPages: 16}
}

func (s *stub9pfs) Init(*core.Ctx) error { return nil }

func (s *stub9pfs) Exports() map[string]core.Handler {
	count := func(name string, h core.Handler) core.Handler {
		return func(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
			s.calls[name]++
			return h(ctx, args)
		}
	}
	return map[string]core.Handler{
		"uk_9pfs_mount": count("mount", func(*core.Ctx, msg.Encoded) (msg.Encoded, error) {
			return nil, nil
		}),
		"uk_9pfs_open": count("open", func(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
			path, _ := args.Str(0)
			flags, _ := args.Int(1)
			_, exists := s.files[path]
			if !exists {
				if flags&OCreate == 0 {
					return nil, core.ENOENT
				}
				s.files[path] = nil
			}
			if flags&OTrunc != 0 {
				s.files[path] = nil
			}
			s.nextFid++
			s.fids[s.nextFid] = path
			return ctx.Ret(s.nextFid)
		}),
		"uk_9pfs_close": count("close", func(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
			fid, _ := args.Int(0)
			if _, ok := s.fids[fid]; !ok {
				return nil, core.EBADF
			}
			delete(s.fids, fid)
			return nil, nil
		}),
		"uk_9pfs_read": count("read", func(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
			fid, _ := args.Int(0)
			off, _ := args.Int64(1)
			n, _ := args.Int(2)
			data := s.files[s.fids[fid]]
			if off >= int64(len(data)) {
				return ctx.Ret([]byte{})
			}
			end := off + int64(n)
			if end > int64(len(data)) {
				end = int64(len(data))
			}
			return ctx.Ret(append([]byte(nil), data[off:end]...))
		}),
		"uk_9pfs_write": count("write", func(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
			fid, _ := args.Int(0)
			off, _ := args.Int64(1)
			p, _ := args.Bytes(2)
			path := s.fids[fid]
			data := s.files[path]
			if int64(len(data)) < off+int64(len(p)) {
				grown := make([]byte, off+int64(len(p)))
				copy(grown, data)
				data = grown
			}
			copy(data[off:], p)
			s.files[path] = data
			return ctx.Ret(len(p))
		}),
		"uk_9pfs_fsync": count("fsync", func(*core.Ctx, msg.Encoded) (msg.Encoded, error) {
			return nil, nil
		}),
		"uk_9pfs_stat": count("stat", func(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
			fid, _ := args.Int(0)
			return ctx.Ret(int64(len(s.files[s.fids[fid]])), false)
		}),
		"uk_9pfs_lookup": count("lookup", func(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
			path, _ := args.Str(0)
			data, ok := s.files[path]
			return ctx.Ret(ok, int64(len(data)), false)
		}),
		"uk_9pfs_mkdir": count("mkdir", func(*core.Ctx, msg.Encoded) (msg.Encoded, error) { return nil, nil }),
		"uk_9pfs_remove": count("remove", func(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
			path, _ := args.Str(0)
			if _, ok := s.files[path]; !ok {
				return nil, core.ENOENT
			}
			delete(s.files, path)
			return nil, nil
		}),
		"uk_9pfs_readdir": count("readdir", func(ctx *core.Ctx, _ msg.Encoded) (msg.Encoded, error) {
			return ctx.Ret([]byte{})
		}),
	}
}

// run boots a bare runtime with VFS over the stub backend.
func run(t testing.TB, cfg core.Config, main func(c *core.Ctx, v *Comp, stub *stub9pfs)) *core.Runtime {
	t.Helper()
	cfg.MaxVirtualTime = time.Hour
	rt := core.NewRuntime(cfg)
	stub := newStub9pfs()
	v := New()
	if err := rt.Register(stub); err != nil {
		t.Fatal(err)
	}
	if err := rt.Register(v); err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(func(c *core.Ctx) { main(c, v, stub) }); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rt
}

func callInt(t testing.TB, c *core.Ctx, fn string, args ...any) int {
	t.Helper()
	rets, err := c.Call("vfs", fn, args...)
	if err != nil {
		t.Fatal(err)
	}
	v, err := rets.Int(0)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestFDsAllocatedLowestFree(t *testing.T) {
	run(t, core.DaSConfig(), func(c *core.Ctx, v *Comp, stub *stub9pfs) {
		fd1 := callInt(t, c, "open", "/a", OCreate|ORdwr)
		fd2 := callInt(t, c, "open", "/b", OCreate|ORdwr)
		if fd1 != 3 || fd2 != 4 {
			t.Fatalf("fds = %d, %d; want 3, 4", fd1, fd2)
		}
		if _, err := c.Call("vfs", "close", fd1); err != nil {
			t.Fatal(err)
		}
		fd3 := callInt(t, c, "open", "/c", OCreate|ORdwr)
		if fd3 != 3 {
			t.Fatalf("fd after close = %d, want reused 3", fd3)
		}
	})
}

func TestFDExhaustion(t *testing.T) {
	run(t, core.DaSConfig(), func(c *core.Ctx, v *Comp, stub *stub9pfs) {
		v.maxFDs = 6 // fds 3,4,5
		for i := 0; i < 3; i++ {
			callInt(t, c, "open", fmt.Sprintf("/f%d", i), OCreate|ORdwr)
		}
		_, err := c.Call("vfs", "open", "/overflow", OCreate|ORdwr)
		if !errors.Is(err, core.ENFILE) {
			t.Fatalf("open past limit = %v, want ENFILE", err)
		}
	})
}

func TestOffsetsAdvanceIndependently(t *testing.T) {
	run(t, core.DaSConfig(), func(c *core.Ctx, v *Comp, stub *stub9pfs) {
		fdW := callInt(t, c, "open", "/f", OCreate|OWronly)
		if _, err := c.Call("vfs", "write", fdW, []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
		fdA := callInt(t, c, "open", "/f", ORdonly)
		fdB := callInt(t, c, "open", "/f", ORdonly)
		ra, err := c.Call("vfs", "read", fdA, 4)
		if err != nil {
			t.Fatal(err)
		}
		da, _ := ra.Bytes(0) // results last until the next call
		rb, err := c.Call("vfs", "read", fdB, 2)
		if err != nil {
			t.Fatal(err)
		}
		db, _ := rb.Bytes(0)
		if string(da) != "0123" || string(db) != "01" {
			t.Fatalf("reads = %q, %q", da, db)
		}
		ra2, err := c.Call("vfs", "read", fdA, 2)
		if err != nil {
			t.Fatal(err)
		}
		da2, _ := ra2.Bytes(0)
		if string(da2) != "45" {
			t.Fatalf("second read on A = %q, want 45", da2)
		}
	})
}

func TestLseekValidation(t *testing.T) {
	run(t, core.DaSConfig(), func(c *core.Ctx, v *Comp, stub *stub9pfs) {
		fd := callInt(t, c, "open", "/f", OCreate|ORdwr)
		if _, err := c.Call("vfs", "write", fd, []byte("abcdef")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Call("vfs", "lseek", fd, int64(0), 99); !errors.Is(err, core.EINVAL) {
			t.Fatalf("bad whence = %v", err)
		}
		if _, err := c.Call("vfs", "lseek", fd, int64(-100), SeekSet); !errors.Is(err, core.EINVAL) {
			t.Fatalf("negative seek = %v", err)
		}
		rets, err := c.Call("vfs", "lseek", fd, int64(-2), SeekEnd)
		if err != nil {
			t.Fatal(err)
		}
		if off, _ := rets.Int64(0); off != 4 {
			t.Fatalf("SEEK_END-2 = %d", off)
		}
	})
}

func TestCompactorReplacesTransients(t *testing.T) {
	cfg := core.DaSConfig()
	cfg.LogShrinkThreshold = 12 // force compaction quickly
	rt := run(t, cfg, func(c *core.Ctx, v *Comp, stub *stub9pfs) {
		fd := callInt(t, c, "open", "/f", OCreate|ORdwr)
		for i := 0; i < 40; i++ {
			if _, err := c.Call("vfs", "write", fd, []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		// The log stayed bounded by compaction.
		if cs, _ := c.Runtime().ComponentStats("vfs"); cs.LogLen > 15 {
			t.Fatalf("log length = %d, want compacted <= threshold+slack", cs.LogLen)
		}
		// And the synthetic offset record restores correctly on reboot.
		if err := c.Reboot("vfs"); err != nil {
			t.Fatal(err)
		}
		rets, err := c.Call("vfs", "lseek", fd, int64(0), SeekCur)
		if err != nil {
			t.Fatal(err)
		}
		if off, _ := rets.Int64(0); off != 40 {
			t.Fatalf("offset after compacted replay = %d, want 40", off)
		}
	})
	cs, _ := rt.ComponentStats("vfs")
	if cs.LogStats.Compacted == 0 {
		t.Fatal("compaction never ran")
	}
}

// TestCompactionOrderIsDeterministic: compaction walks the fds in
// ascending order, so with three files holding transients past the
// shrink threshold, their synthetic offset records land in the log in fd
// order on every run, never in the fd map's iteration order.
func TestCompactionOrderIsDeterministic(t *testing.T) {
	cfg := core.DaSConfig()
	cfg.LogShrinkThreshold = 12
	for i := 0; i < 20; i++ {
		var fds, synth []int
		rt := run(t, cfg, func(c *core.Ctx, v *Comp, stub *stub9pfs) {
			for _, path := range []string{"/a", "/b", "/c"} {
				fds = append(fds, callInt(t, c, "open", path, OCreate|ORdwr))
			}
			for round := 0; round < 5; round++ {
				for _, fd := range fds {
					if _, err := c.Call("vfs", "write", fd, []byte("x")); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
		recs, err := rt.LogRecords("vfs")
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if r.Synthetic {
				fd, _ := r.Args.Int(0)
				synth = append(synth, fd)
			}
		}
		if fmt.Sprint(synth) != fmt.Sprint(fds) {
			t.Fatalf("run %d: synthetic records for fds %v, want %v in ascending order", i, synth, fds)
		}
	}
}

func TestRebootReplaysAgainstBackendWithoutReinvoking(t *testing.T) {
	run(t, core.DaSConfig(), func(c *core.Ctx, v *Comp, stub *stub9pfs) {
		fd := callInt(t, c, "open", "/f", OCreate|ORdwr)
		if _, err := c.Call("vfs", "write", fd, []byte("hello")); err != nil {
			t.Fatal(err)
		}
		opens := stub.calls["open"]
		writes := stub.calls["write"]
		if err := c.Reboot("vfs"); err != nil {
			t.Fatal(err)
		}
		// Encapsulated restoration fed the backend's logged returns; the
		// stub must not have been re-invoked.
		if stub.calls["open"] != opens || stub.calls["write"] != writes {
			t.Fatalf("backend re-invoked during replay: opens %d->%d writes %d->%d",
				opens, stub.calls["open"], writes, stub.calls["write"])
		}
		// The fd still maps to the same backend fid.
		rets, err := c.Call("vfs", "pread", fd, 5, int64(0))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := rets.Bytes(0)
		if string(data) != "hello" {
			t.Fatalf("pread after replay = %q", data)
		}
	})
}

// TestRebootKeepsFDControlBlocks restores an fd from a quiescent-point
// checkpoint and closes it: the checkpoint must carry the fd's arena
// block address, or the restored fd forgets its block, the block leaks,
// and the fd stops dirtying its page.
func TestRebootKeepsFDControlBlocks(t *testing.T) {
	cfg := core.DaSConfig()
	cfg.Ckpt = ckpt.Policy{EveryCalls: 2}
	run(t, cfg, func(c *core.Ctx, v *Comp, stub *stub9pfs) {
		stats := func() core.ComponentStats {
			cs, _ := c.Runtime().ComponentStats("vfs")
			return cs
		}
		before := stats().Heap.AllocatedBytes
		fd := callInt(t, c, "open", "/f", OCreate|ORdwr)
		for i := 0; stats().Ckpt.CheckpointCount == 0; i++ {
			if i == 10 {
				t.Fatal("no checkpoint after 10 writes")
			}
			if _, err := c.Call("vfs", "write", fd, []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Reboot("vfs"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Call("vfs", "close", fd); err != nil {
			t.Fatal(err)
		}
		if after := stats().Heap.AllocatedBytes; after != before {
			t.Fatalf("vfs arena holds %d bytes after open+reboot+close, %d before the open", after, before)
		}
	})
}

func TestWritevConcatenates(t *testing.T) {
	run(t, core.DaSConfig(), func(c *core.Ctx, v *Comp, stub *stub9pfs) {
		fd := callInt(t, c, "open", "/f", OCreate|OWronly)
		if _, err := c.Call("vfs", "writev", fd, []byte("ab")); err != nil {
			t.Fatal(err)
		}
		if string(stub.files["/f"]) != "ab" {
			t.Fatalf("file = %q", stub.files["/f"])
		}
	})
}

func TestStatAndVget(t *testing.T) {
	run(t, core.DaSConfig(), func(c *core.Ctx, v *Comp, stub *stub9pfs) {
		stub.files["/present"] = []byte("123")
		rets, err := c.Call("vfs", "stat", "/present")
		if err != nil {
			t.Fatal(err)
		}
		if size, _ := rets.Int64(0); size != 3 {
			t.Fatalf("stat size = %d", size)
		}
		if _, err := c.Call("vfs", "vfscore_vget", "/absent"); !errors.Is(err, core.ENOENT) {
			t.Fatalf("vget absent = %v", err)
		}
	})
}

func TestMountValidation(t *testing.T) {
	run(t, core.DaSConfig(), func(c *core.Ctx, v *Comp, stub *stub9pfs) {
		if _, err := c.Call("vfs", "mount", "/", "9pfs"); !errors.Is(err, core.EEXIST) {
			t.Fatalf("double mount / = %v", err)
		}
		if _, err := c.Call("vfs", "mount", "/mnt", "ext4"); !errors.Is(err, core.ENOSYS) {
			t.Fatalf("unknown fstype = %v", err)
		}
		if _, err := c.Call("vfs", "mount", "/mnt", "9pfs"); err != nil {
			t.Fatalf("extra mount = %v", err)
		}
	})
}

func TestPipeLifecycle(t *testing.T) {
	run(t, core.DaSConfig(), func(c *core.Ctx, v *Comp, stub *stub9pfs) {
		rets, err := c.Call("vfs", "pipe")
		if err != nil {
			t.Fatal(err)
		}
		r, _ := rets.Int(0)
		w, _ := rets.Int(1)
		if r == w {
			t.Fatalf("pipe fds collide: %d", r)
		}
		if _, err := c.Call("vfs", "write", w, []byte("pipe!")); err != nil {
			t.Fatal(err)
		}
		rr, err := c.Call("vfs", "read", r, 10)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := rr.Bytes(0)
		if string(data) != "pipe!" {
			t.Fatalf("pipe read = %q", data)
		}
		// Reading an empty pipe with writers alive: EAGAIN.
		if _, err := c.Call("vfs", "read", r, 1); !errors.Is(err, core.EAGAIN) {
			t.Fatalf("empty pipe read = %v", err)
		}
		// Writer closes: EOF.
		if _, err := c.Call("vfs", "close", w); err != nil {
			t.Fatal(err)
		}
		rr, err = c.Call("vfs", "read", r, 1)
		if err != nil {
			t.Fatal(err)
		}
		if eof, _ := rr.Bool(1); !eof {
			t.Fatal("no EOF after writer closed")
		}
		// Reader closes too: writing again is EBADF (fd gone).
		if _, err := c.Call("vfs", "close", r); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Call("vfs", "write", w, []byte("x")); !errors.Is(err, core.EBADF) {
			t.Fatalf("write after both closed = %v", err)
		}
	})
}

func TestBadFDsEverywhere(t *testing.T) {
	run(t, core.DaSConfig(), func(c *core.Ctx, v *Comp, stub *stub9pfs) {
		for _, fn := range []string{"close", "fsync", "readdir", "ioctl"} {
			if _, err := c.Call("vfs", fn, 99); !errors.Is(err, core.EBADF) {
				t.Errorf("%s(99) = %v, want EBADF", fn, err)
			}
		}
		if _, err := c.Call("vfs", "read", 99, 1); !errors.Is(err, core.EBADF) {
			t.Errorf("read(99) = %v", err)
		}
		if _, err := c.Call("vfs", "write", 99, []byte("x")); !errors.Is(err, core.EBADF) {
			t.Errorf("write(99) = %v", err)
		}
	})
}

// TestFDSessionIDs: an fd's session id is "fd:<fd>" at every fd, as
// fmt formats it, it parses back to the fd, and naming one of the fds a
// run uses allocates nothing.
func TestFDSessionIDs(t *testing.T) {
	for fd := -2; fd < 512; fd++ {
		got, want := fdSessions.ID(fd), msg.SessionID(fmt.Sprintf("fd:%d", fd))
		if got != want {
			t.Fatalf("fdSessions.ID(%d) = %q, want %q", fd, got, want)
		}
		if n, ok := fdSessions.Parse(got); !ok || n != fd {
			t.Fatalf("fdSessions.Parse(%q) = %d, %v", got, n, ok)
		}
	}
	var sink msg.SessionID
	if n := testing.AllocsPerRun(100, func() {
		for fd := 3; fd < 200; fd++ {
			sink = fdSessions.ID(fd)
		}
	}); n != 0 {
		t.Fatalf("%v allocations to name fds 3..199, want 0", n)
	}
	_ = sink
}
