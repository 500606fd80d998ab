package unikernel

import (
	"errors"
	"strings"
	"time"

	"vampos/internal/core"
	"vampos/internal/host"
	"vampos/internal/lwip"
	"vampos/internal/msg"
	"vampos/internal/sched"
)

// Re-exported open flags and whence values for application code.
const (
	ORdonly = 0x0
	OWronly = 0x1
	ORdwr   = 0x2
	OCreate = 0x40
	OTrunc  = 0x200
	OAppend = 0x400

	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// Sys is the system-call surface one application thread sees. Blocking
// calls (Accept, Recv with no data, Connect) poll the nonblocking
// component interfaces, sleeping the configured poll interval between
// attempts — the cooperative-unikernel idiom for waiting on I/O.
type Sys struct {
	ctx  *core.Ctx
	inst *Instance
}

// Ctx exposes the underlying runtime context.
func (s *Sys) Ctx() *core.Ctx { return s.ctx }

// Instance returns the owning instance.
func (s *Sys) Instance() *Instance { return s.inst }

// Go spawns another application thread, tracked for full-reboot teardown.
func (s *Sys) Go(name string, fn func(*Sys)) {
	t := s.ctx.Go(name, func(c *core.Ctx) {
		fn(&Sys{ctx: c, inst: s.inst})
	})
	s.track(t)
}

// GoShard spawns an application thread pinned to a shard ordinal (see
// core.Ctx.GoShard), tracked for full-reboot teardown. Workload drivers
// with independent per-cell threads use it so the sharded scheduler can
// run the cells on different cores.
func (s *Sys) GoShard(name string, shard int, fn func(*Sys)) {
	t := s.ctx.GoShard(name, shard, func(c *core.Ctx) {
		fn(&Sys{ctx: c, inst: s.inst})
	})
	s.track(t)
}

// track records t for full-reboot teardown. The registry is
// instance-global, so an append from inside a buffered round slice is
// deferred through Thread.Do: it lands at commit in merge order, which
// both keeps the registry race-free when sibling cells spawn in the
// same round and keeps its teardown order canonical.
func (s *Sys) track(t *sched.Thread) {
	s.ctx.Thread().Do(func() {
		s.inst.appThreads = append(s.inst.appThreads, t)
	})
}

// GoHost spawns a host-side thread (workload clients), untracked: it
// survives guest reboots, as real clients do.
func (s *Sys) GoHost(name string, fn func(t *sched.Thread)) *sched.Thread {
	return s.inst.rt.Scheduler().Spawn(name, 0, fn)
}

// Sleep suspends the calling thread in virtual time.
func (s *Sys) Sleep(d time.Duration) { s.ctx.Sleep(d) }

// pollInterval is the blocking-syscall poll period in virtual time.
const pollInterval = 20 * time.Microsecond

// pollWait parks the thread until its next blocking-syscall retry. The
// legacy scheduler sleeps a relative pollInterval. Under the sharded
// batons the deadline is instead rounded up to the next absolute
// pollInterval grid point — timer coalescing, the same trick tickless
// kernels use to batch wakeups. Threads polling concurrently then wake
// at the same virtual instant, so their retry (and the handler work the
// retry unblocks) lands in one wide parallel round instead of a
// dispatch-cost-staggered run of width-one rounds. The grid is a pure
// function of virtual time, so the schedule stays canonical at every
// shard count.
func (s *Sys) pollWait() {
	if s.inst.cfg.Core.Shards > 0 {
		now := s.ctx.Elapsed()
		s.ctx.Sleep(pollInterval - now%pollInterval)
		return
	}
	s.ctx.Sleep(pollInterval)
}

// Elapsed returns virtual time since boot.
func (s *Sys) Elapsed() time.Duration { return s.ctx.Elapsed() }

// call invokes a component function, opening a syscall-level trace span
// around it: the causal root the flight recorder follows across every
// component hop, crash, and recovery the call triggers. The hooks are
// free (nil-recorder branches, no allocation) when tracing is off.
func (s *Sys) call(target, fn string, args ...any) (msg.Encoded, error) {
	sp, prev := s.ctx.BeginSyscall(fn)
	rets, err := s.ctx.Call(target, fn, args...)
	s.ctx.EndSyscall(sp, prev, err)
	return rets, err
}

// --- process / identity / time ---

// Getpid returns the process id from the PROCESS component.
func (s *Sys) Getpid() (int, error) {
	rets, err := s.call("process", "getpid")
	if err != nil {
		return 0, err
	}
	return rets.Int(0)
}

// Getuid returns the user id from the USER component.
func (s *Sys) Getuid() (int, error) {
	rets, err := s.call("user", "getuid")
	if err != nil {
		return 0, err
	}
	return rets.Int(0)
}

// Uname returns the system identification string.
func (s *Sys) Uname() (string, error) {
	rets, err := s.call("sysinfo", "uname")
	if err != nil {
		return "", err
	}
	n, err := rets.Len()
	if err != nil {
		return "", err
	}
	parts := make([]string, 0, n)
	for i := 0; i < n; i++ {
		p, err := rets.Str(i)
		if err != nil {
			return "", err
		}
		parts = append(parts, p)
	}
	return strings.Join(parts, " "), nil
}

// ClockGettime reads the TIMER component's clock.
func (s *Sys) ClockGettime() (time.Time, error) {
	rets, err := s.call("timer", "clock_gettime")
	if err != nil {
		return time.Time{}, err
	}
	sec, err := rets.Int64(0)
	if err != nil {
		return time.Time{}, err
	}
	nsec, err := rets.Int64(1)
	if err != nil {
		return time.Time{}, err
	}
	return time.Unix(sec, nsec), nil
}

// --- files ---

// Open opens (or with OCreate creates) a file.
func (s *Sys) Open(path string, flags int) (int, error) {
	rets, err := s.call("vfs", "open", path, flags)
	if err != nil {
		return -1, err
	}
	return rets.Int(0)
}

// Create creates/truncates a file for writing (Table II's create()).
func (s *Sys) Create(path string) (int, error) {
	rets, err := s.call("vfs", "create", path)
	if err != nil {
		return -1, err
	}
	return rets.Int(0)
}

// Read reads up to n bytes at the file offset (or from a socket/pipe),
// blocking until data, EOF, or error.
func (s *Sys) Read(fd, n int) (data []byte, eof bool, err error) {
	for {
		data, eof, err = s.ReadNB(fd, n)
		if !errors.Is(err, core.EAGAIN) {
			return data, eof, err
		}
		s.pollWait()
	}
}

// ReadNB is the nonblocking read: EAGAIN when nothing is available.
func (s *Sys) ReadNB(fd, n int) (data []byte, eof bool, err error) {
	rets, err := s.call("vfs", "read", fd, n)
	if err != nil {
		return nil, false, err
	}
	data, err = rets.Bytes(0)
	if err != nil {
		return nil, false, err
	}
	eof, err = rets.Bool(1)
	return data, eof, err
}

// Pread reads n bytes at an explicit offset without moving the cursor.
func (s *Sys) Pread(fd, n int, off int64) ([]byte, error) {
	rets, err := s.call("vfs", "pread", fd, n, off)
	if err != nil {
		return nil, err
	}
	return rets.Bytes(0)
}

// Write writes data at the file offset (or to a socket/pipe).
func (s *Sys) Write(fd int, data []byte) (int, error) {
	rets, err := s.call("vfs", "write", fd, data)
	if err != nil {
		return 0, err
	}
	return rets.Int(0)
}

// Pwrite writes data at an explicit offset.
func (s *Sys) Pwrite(fd int, data []byte, off int64) (int, error) {
	rets, err := s.call("vfs", "pwrite", fd, data, off)
	if err != nil {
		return 0, err
	}
	return rets.Int(0)
}

// Writev writes multiple buffers (concatenated, per the VFS contract).
func (s *Sys) Writev(fd int, bufs ...[]byte) (int, error) {
	var total []byte
	for _, b := range bufs {
		total = append(total, b...)
	}
	rets, err := s.call("vfs", "writev", fd, total)
	if err != nil {
		return 0, err
	}
	return rets.Int(0)
}

// Close closes a descriptor.
func (s *Sys) Close(fd int) error {
	_, err := s.call("vfs", "close", fd)
	return err
}

// Fsync flushes a file to host storage.
func (s *Sys) Fsync(fd int) error {
	_, err := s.call("vfs", "fsync", fd)
	return err
}

// Stat returns a path's size and directory flag.
func (s *Sys) Stat(path string) (size int64, isDir bool, err error) {
	rets, err := s.call("vfs", "stat", path)
	if err != nil {
		return 0, false, err
	}
	size, err = rets.Int64(0)
	if err != nil {
		return 0, false, err
	}
	isDir, err = rets.Bool(1)
	return size, isDir, err
}

// Mkdir creates a directory.
func (s *Sys) Mkdir(path string) error {
	_, err := s.call("vfs", "mkdir", path)
	return err
}

// Unlink removes a file.
func (s *Sys) Unlink(path string) error {
	_, err := s.call("vfs", "unlink", path)
	return err
}

// ReadDir lists a directory.
func (s *Sys) ReadDir(path string) ([]string, error) {
	fd, err := s.Open(path, ORdonly)
	if err != nil {
		return nil, err
	}
	defer func() { _ = s.Close(fd) }()
	rets, err := s.call("vfs", "readdir", fd)
	if err != nil {
		return nil, err
	}
	raw, err := rets.Bytes(0)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, line := range strings.Split(string(raw), "\n") {
		if line != "" {
			names = append(names, line)
		}
	}
	return names, nil
}

// Pipe creates a pipe and returns (readFD, writeFD).
func (s *Sys) Pipe() (int, int, error) {
	rets, err := s.call("vfs", "pipe")
	if err != nil {
		return -1, -1, err
	}
	r, err := rets.Int(0)
	if err != nil {
		return -1, -1, err
	}
	w, err := rets.Int(1)
	if err != nil {
		return -1, -1, err
	}
	return r, w, nil
}

// --- sockets ---

// Socket allocates a TCP socket descriptor.
func (s *Sys) Socket() (int, error) {
	rets, err := s.call("vfs", "vfs_alloc_socket")
	if err != nil {
		return -1, err
	}
	return rets.Int(0)
}

// Bind binds a socket to a local port.
func (s *Sys) Bind(fd, port int) error {
	_, err := s.call("vfs", "sock_bind", fd, port)
	return err
}

// Listen starts accepting connections.
func (s *Sys) Listen(fd, backlog int) error {
	_, err := s.call("vfs", "sock_listen", fd, backlog)
	return err
}

// Accept blocks until a connection is ready and returns its descriptor.
func (s *Sys) Accept(fd int) (int, error) {
	for {
		nfd, err := s.AcceptNB(fd)
		if !errors.Is(err, core.EAGAIN) {
			return nfd, err
		}
		s.pollWait()
	}
}

// AcceptNB is the nonblocking accept: EAGAIN when no connection waits.
func (s *Sys) AcceptNB(fd int) (int, error) {
	rets, err := s.call("vfs", "sock_accept", fd)
	if err != nil {
		return -1, err
	}
	return rets.Int(0)
}

// Connect dials addr:port and blocks until established or failed.
func (s *Sys) Connect(fd int, addr lwip.Addr, port int, timeout time.Duration) error {
	if _, err := s.call("vfs", "sock_connect", fd, uint64(addr), port); err != nil {
		return err
	}
	deadline := s.ctx.Elapsed() + timeout
	for {
		rets, err := s.call("vfs", "sock_state", fd)
		if err != nil {
			return err
		}
		st, err := rets.Int(0)
		if err != nil {
			return err
		}
		switch lwip.ConnState(st) {
		case lwip.StateEstablished:
			return nil
		case lwip.StateDone, lwip.StateClosed:
			return core.ECONNREFUSED
		}
		if s.ctx.Elapsed() >= deadline {
			return core.Errno("ETIMEDOUT")
		}
		s.pollWait()
	}
}

// Send writes to a socket (alias of Write, the paper's socket_write).
func (s *Sys) Send(fd int, data []byte) (int, error) { return s.Write(fd, data) }

// Recv reads from a socket, blocking (the paper's socket_read).
func (s *Sys) Recv(fd, n int) ([]byte, bool, error) { return s.Read(fd, n) }

// --- host-side conveniences for experiments ---

// HostFS returns the host export file system.
func (s *Sys) HostFS() *ExportFSRef { return &ExportFSRef{s.inst} }

// ExportFSRef wraps host file operations for workload setup.
type ExportFSRef struct{ inst *Instance }

// ReadFile reads a host-side file from the export.
func (r *ExportFSRef) ReadFile(path string) ([]byte, error) {
	return r.inst.host.FS().ReadFile(path)
}

// NewPeer registers a workload client machine on the virtual network.
func (s *Sys) NewPeer() *host.Peer { return s.inst.host.NewPeer() }
