// Package vfs implements the VFS component: the POSIX-facing file and
// socket layer of the unikernel (paper Table I). It owns the file
// descriptor table — the offsets the paper's encapsulated restoration
// discussion revolves around — and dispatches file operations to 9PFS
// and socket operations to LWIP.
//
// VFS is stateful and uses checkpoint-based initialization (§V-E): its
// Init mounts the root file system, which touches 9PFS, so a reboot must
// restore the post-init image instead of re-running Init.
package vfs

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"

	"vampos/internal/core"
	"vampos/internal/mem"
	"vampos/internal/msg"
)

// Open flags, following the Linux numeric convention.
const (
	ORdonly = 0x0
	OWronly = 0x1
	ORdwr   = 0x2
	OCreate = 0x40
	OTrunc  = 0x200
	OAppend = 0x400
)

// Whence values for Lseek.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// file kinds
type kind uint8

const (
	kindFile kind = iota + 1
	kindSock
	kindPipeR
	kindPipeW
)

// file is one fd-table entry.
type file struct {
	FD     int
	Kind   kind
	Path   string
	Fid    int // 9pfs fid
	Offset int64
	Append bool
	Sock   int // lwip socket id
	Pipe   int // pipe id
	// CtlBlock is the fd's arena block. A checkpoint restore brings back
	// the heap clone and the memory image together, so the block is
	// valid again at the same address and the restored fd must keep it.
	CtlBlock mem.Addr
}

// pipeBuf is an in-kernel pipe.
type pipeBuf struct {
	Data        []byte
	ReadersGone bool
	WritersGone bool
}

// Comp is the VFS component.
type Comp struct {
	// MountRoot controls whether Init mounts "/" on 9PFS. Configurations
	// without a file system backend (the Echo application) disable it.
	MountRoot bool
	// DisableCheckpoint forces cold re-init + full replay on reboot
	// instead of checkpoint-based initialization — the ablation knob for
	// measuring what §V-E buys.
	DisableCheckpoint bool

	mounts   map[string]string
	fds      map[int]*file
	pipes    map[int]*pipeBuf
	nextPipe int
	maxFDs   int
	// fdOrder is CompactLog's buffer for the fds in ascending order.
	fdOrder []int

	// staticBase is the component's data/bss analogue: a region Init
	// writes into the arena so the post-init checkpoint has the resident
	// image the paper's snapshot restore actually copies. Without it the
	// fd table lives purely in Go structs and a restore would bill zero.
	staticBase mem.Addr
}

// staticPages sizes the VFS data/bss analogue (mount table, fd-table
// headers, path caches). Exactly half the arena, so the remaining free
// space is one contiguous buddy block and the steady-state heap reports
// zero external fragmentation — as a fixed data/bss segment beside a
// heap would.
const staticPages = 256

// New creates the VFS component with the root mount enabled.
func New() *Comp { return &Comp{MountRoot: true, maxFDs: 1024} }

// Describe implements core.Component.
func (c *Comp) Describe() core.Descriptor {
	return core.Descriptor{
		Name: "vfs", Stateful: true, Checkpoint: !c.DisableCheckpoint,
		HeapPages: 512, DomainPages: 512,
		Deps: []string{"9pfs", "lwip"},
	}
}

// Init implements core.Component: mount the root file system. This is
// exactly the cross-component side effect that makes VFS need
// checkpoint-based initialization.
func (c *Comp) Init(ctx *core.Ctx) error {
	c.mounts = make(map[string]string)
	c.fds = make(map[int]*file)
	c.pipes = make(map[int]*pipeBuf)
	c.nextPipe = 0
	if err := c.writeStatic(ctx); err != nil {
		return err
	}
	if !c.MountRoot {
		return nil
	}
	// EEXIST means 9PFS is already attached: the cold re-init path of a
	// VFS-only reboot hits it, since 9PFS kept running. This tolerance is
	// what makes cold re-init *possible*; checkpoint-based initialization
	// is what makes it *unnecessary* (§V-E) — see the ablation bench.
	if _, err := ctx.Call("9pfs", "uk_9pfs_mount"); err != nil && !errors.Is(err, core.EEXIST) {
		return fmt.Errorf("vfs: mount root: %w", err)
	}
	c.mounts["/"] = "9pfs"
	return nil
}

// Exports implements core.Component (paper Table II's VFS row, plus the
// socket dispatch entry points).
func (c *Comp) Exports() map[string]core.Handler {
	return map[string]core.Handler{
		"mount":            c.mount,
		"open":             c.open,
		"create":           c.create,
		"read":             c.read,
		"pread":            c.pread,
		"write":            c.write,
		"pwrite":           c.pwrite,
		"writev":           c.writev,
		"lseek":            c.lseek,
		"close":            c.close,
		"fsync":            c.fsync,
		"fcntl":            c.fcntl,
		"ioctl":            c.ioctl,
		"pipe":             c.pipe,
		"stat":             c.stat,
		"mkdir":            c.mkdir,
		"unlink":           c.unlink,
		"readdir":          c.readdir,
		"vfscore_vget":     c.vget,
		"vfs_alloc_socket": c.allocSocket,
		"sock_bind":        c.sockBind,
		"sock_listen":      c.sockListen,
		"sock_accept":      c.sockAccept,
		"sock_connect":     c.sockConnect,
		"sock_state":       c.sockState,
		"setsockopt":       c.setsockopt,
		"getsockopt":       c.getsockopt,
		"sock_shutdown":    c.sockShutdown,
		"__vfs_set_offset": c.setOffsetSynthetic,
	}
}

// fdSessions is the namespace of VFS sessions: one per descriptor.
var fdSessions = msg.NewNamespace("fd")

// LogPolicies implements core.LogPolicyProvider: the Table II VFS row.
// Every per-fd call names its session, and a fault in it, by the
// descriptor in argument zero; openers name theirs by the fd they
// return. stat and vget change no VFS state and have no row; readdir and
// sock_state are unlogged but attributable.
func (c *Comp) LogPolicies() (*msg.Namespace, map[string]core.LogPolicy) {
	durable := core.LogPolicy{Class: msg.ClassDurable}
	opener := core.LogPolicy{Class: msg.ClassOpener, Session: core.Ret0}
	perFD := func(class msg.Class) core.LogPolicy {
		return core.LogPolicy{Class: class, Session: core.Arg0, FaultByArg0: true}
	}
	transient, durableFD := perFD(msg.ClassTransient), perFD(msg.ClassDurable)
	return fdSessions, map[string]core.LogPolicy{
		"mount":            durable,
		"mkdir":            durable,
		"unlink":           durable,
		"open":             opener,
		"create":           opener,
		"vfs_alloc_socket": opener,
		"pipe":             opener,
		// The accepted connection's fd is new; a fault is the listener's.
		"sock_accept":   {Class: msg.ClassOpener, Session: core.Ret0, FaultByArg0: true},
		"read":          transient,
		"pread":         transient,
		"write":         transient,
		"pwrite":        transient,
		"writev":        transient,
		"lseek":         transient,
		"fsync":         transient,
		"fcntl":         durableFD,
		"ioctl":         durableFD,
		"sock_bind":     durableFD,
		"sock_listen":   durableFD,
		"sock_connect":  durableFD,
		"setsockopt":    durableFD,
		"getsockopt":    durableFD,
		"sock_shutdown": durableFD,
		"close":         perFD(msg.ClassCanceler),
		"readdir":       {FaultByArg0: true},
		"sock_state":    {FaultByArg0: true},
	}
}

// allocFD returns the lowest free descriptor (>= 3, POSIX-style). The
// reuse is what the session shrinker keys on; during replay the original
// number is reproduced from the logged return value.
func (c *Comp) allocFD(ctx *core.Ctx) (int, error) {
	if rets, ok := ctx.ReplayRets(); ok {
		if fd, err := rets.Int(0); err == nil {
			return fd, nil
		}
	}
	for fd := 3; fd < c.maxFDs; fd++ {
		if _, used := c.fds[fd]; !used {
			return fd, nil
		}
	}
	return 0, core.ENFILE
}

func (c *Comp) getFD(args msg.Encoded, idx int) (*file, error) {
	fd, err := args.Int(idx)
	if err != nil {
		return nil, err
	}
	f, ok := c.fds[fd]
	if !ok {
		return nil, core.EBADF
	}
	return f, nil
}

// writeStatic materialises the component's static data region: the
// bytes a checkpoint restore genuinely copies back. Runs at every Init
// (the cold re-init path rebuilds the arena, so the region is
// re-allocated each time).
func (c *Comp) writeStatic(ctx *core.Ctx) error {
	addr, err := ctx.Heap().Alloc(staticPages * mem.PageSize)
	if err != nil {
		return fmt.Errorf("vfs: static region: %w", err)
	}
	c.staticBase = addr
	seed := make([]byte, staticPages*mem.PageSize)
	for i := range seed {
		seed[i] = byte(i)
	}
	return ctx.Mem().Write(addr, seed)
}

func (c *Comp) installFD(ctx *core.Ctx, f *file) {
	if addr, err := ctx.Heap().Alloc(192); err == nil {
		f.CtlBlock = addr
	}
	c.fds[f.FD] = f
	c.syncFD(ctx, f)
}

// syncFD mirrors the fd's mutable control fields into its arena block,
// so per-fd activity dirties real pages (what incremental checkpoint
// deltas measure) instead of living only in Go structs.
func (c *Comp) syncFD(ctx *core.Ctx, f *file) {
	if f.CtlBlock == 0 {
		return
	}
	var blk [24]byte
	binary.LittleEndian.PutUint64(blk[0:], uint64(f.FD))
	binary.LittleEndian.PutUint64(blk[8:], uint64(f.Offset))
	binary.LittleEndian.PutUint64(blk[16:], uint64(f.Fid))
	_ = ctx.Mem().Write(f.CtlBlock, blk[:])
}

func (c *Comp) dropFD(ctx *core.Ctx, f *file) {
	if f.CtlBlock != 0 {
		_ = ctx.Heap().Free(f.CtlBlock)
		f.CtlBlock = 0
	}
	delete(c.fds, f.FD)
}

func (c *Comp) mount(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	point, err := args.Str(0)
	if err != nil {
		return nil, err
	}
	fstype, err := args.Str(1)
	if err != nil {
		return nil, err
	}
	if _, dup := c.mounts[point]; dup {
		return nil, core.EEXIST
	}
	if fstype != "9pfs" {
		return nil, core.ENOSYS
	}
	if point != "/" {
		// Additional mounts share the single 9P attach in this model.
		c.mounts[point] = fstype
		return nil, nil
	}
	if _, err := ctx.Call("9pfs", "uk_9pfs_mount"); err != nil {
		return nil, err
	}
	c.mounts[point] = fstype
	return nil, nil
}

func (c *Comp) open(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	path, err := args.Str(0)
	if err != nil {
		return nil, err
	}
	flags, err := args.Int(1)
	if err != nil {
		return nil, err
	}
	return c.openPath(ctx, path, flags)
}

func (c *Comp) openPath(ctx *core.Ctx, path string, flags int) (msg.Encoded, error) {
	fd, err := c.allocFD(ctx)
	if err != nil {
		return nil, err
	}
	// Reserve the descriptor before calling out: the 9PFS call yields,
	// and a concurrent open must not pick the same fd.
	placeholder := &file{FD: fd, Kind: kindFile}
	c.fds[fd] = placeholder
	rets, err := ctx.Call("9pfs", "uk_9pfs_open", path, flags)
	if err != nil {
		delete(c.fds, fd)
		return nil, err
	}
	fid, err := rets.Int(0)
	if err != nil {
		delete(c.fds, fd)
		return nil, err
	}
	f := &file{FD: fd, Kind: kindFile, Path: path, Fid: fid, Append: flags&OAppend != 0}
	if f.Append {
		// An append fd starts at the file's end. Without its size the
		// open fails rather than hand out an fd that writes at offset 0.
		size, err := c.statSize(ctx, fid)
		if err != nil {
			_, _ = ctx.Call("9pfs", "uk_9pfs_close", fid)
			delete(c.fds, fd)
			return nil, err
		}
		f.Offset = size
	}
	c.installFD(ctx, f)
	return ctx.Ret(fd)
}

// statSize returns the size 9PFS reports for fid: where an append fd
// starts and what SEEK_END counts from.
func (c *Comp) statSize(ctx *core.Ctx, fid int) (int64, error) {
	rets, err := ctx.Call("9pfs", "uk_9pfs_stat", fid)
	if err != nil {
		return 0, err
	}
	return rets.Int64(0)
}

// create is open(path, O_CREATE|O_WRONLY|O_TRUNC) under its Table II name.
func (c *Comp) create(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	path, err := args.Str(0)
	if err != nil {
		return nil, err
	}
	return c.openPath(ctx, path, OCreate|OWronly|OTrunc)
}

func (c *Comp) read(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	f, err := c.getFD(args, 0)
	if err != nil {
		return nil, err
	}
	n, err := args.Int(1)
	if err != nil {
		return nil, err
	}
	switch f.Kind {
	case kindFile:
		rets, err := ctx.Call("9pfs", "uk_9pfs_read", f.Fid, f.Offset, n)
		if err != nil {
			return nil, err
		}
		data, err := rets.Bytes(0)
		if err != nil {
			return nil, err
		}
		f.Offset += int64(len(data))
		c.syncFD(ctx, f)
		return ctx.Ret(data, len(data) == 0)
	case kindSock:
		rets, err := ctx.Call("lwip", "recv", f.Sock, n)
		if err != nil {
			return nil, err
		}
		return rets, nil // (data, eof)
	case kindPipeR:
		p := c.pipes[f.Pipe]
		if p == nil {
			return nil, core.EBADF
		}
		if len(p.Data) == 0 {
			if p.WritersGone {
				return ctx.Ret([]byte{}, true)
			}
			return nil, core.EAGAIN
		}
		if n > len(p.Data) {
			n = len(p.Data)
		}
		rets, err := ctx.Ret(p.Data[:n], false)
		p.Data = p.Data[n:]
		return rets, err
	default:
		return nil, core.EBADF
	}
}

func (c *Comp) pread(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	f, err := c.getFD(args, 0)
	if err != nil {
		return nil, err
	}
	n, err := args.Int(1)
	if err != nil {
		return nil, err
	}
	off, err := args.Int64(2)
	if err != nil {
		return nil, err
	}
	if f.Kind != kindFile {
		return nil, core.EINVAL
	}
	rets, err := ctx.Call("9pfs", "uk_9pfs_read", f.Fid, off, n)
	if err != nil {
		return nil, err
	}
	data, err := rets.Bytes(0)
	if err != nil {
		return nil, err
	}
	return ctx.Ret(data, len(data) == 0)
}

func (c *Comp) write(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	f, err := c.getFD(args, 0)
	if err != nil {
		return nil, err
	}
	data, err := ctx.Bytes(args, 1)
	if err != nil {
		return nil, err
	}
	switch f.Kind {
	case kindFile:
		rets, err := ctx.Call("9pfs", "uk_9pfs_write", f.Fid, f.Offset, data)
		if err != nil {
			return nil, err
		}
		n, err := rets.Int(0)
		if err != nil {
			return nil, err
		}
		f.Offset += int64(n)
		c.syncFD(ctx, f)
		return ctx.Ret(n)
	case kindSock:
		rets, err := ctx.Call("lwip", "send", f.Sock, data)
		if err != nil {
			return nil, err
		}
		return rets, nil
	case kindPipeW:
		p := c.pipes[f.Pipe]
		if p == nil {
			return nil, core.EBADF
		}
		if p.ReadersGone {
			return nil, core.EPIPE
		}
		p.Data = append(p.Data, data...)
		return ctx.Ret(len(data))
	default:
		return nil, core.EBADF
	}
}

func (c *Comp) pwrite(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	f, err := c.getFD(args, 0)
	if err != nil {
		return nil, err
	}
	data, err := args.Bytes(1)
	if err != nil {
		return nil, err
	}
	off, err := args.Int64(2)
	if err != nil {
		return nil, err
	}
	if f.Kind != kindFile {
		return nil, core.EINVAL
	}
	rets, err := ctx.Call("9pfs", "uk_9pfs_write", f.Fid, off, data)
	if err != nil {
		return nil, err
	}
	return rets, nil
}

// writev concatenated at the syscall layer: one buffer here.
func (c *Comp) writev(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	return c.write(ctx, args)
}

func (c *Comp) lseek(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	f, err := c.getFD(args, 0)
	if err != nil {
		return nil, err
	}
	off, err := args.Int64(1)
	if err != nil {
		return nil, err
	}
	whence, err := args.Int(2)
	if err != nil {
		return nil, err
	}
	if f.Kind != kindFile {
		return nil, core.EINVAL
	}
	switch whence {
	case SeekSet:
		f.Offset = off
	case SeekCur:
		f.Offset += off
	case SeekEnd:
		size, err := c.statSize(ctx, f.Fid)
		if err != nil {
			return nil, err
		}
		f.Offset = size + off
	default:
		return nil, core.EINVAL
	}
	if f.Offset < 0 {
		f.Offset = 0
		return nil, core.EINVAL
	}
	c.syncFD(ctx, f)
	return ctx.Ret(f.Offset)
}

func (c *Comp) close(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	f, err := c.getFD(args, 0)
	if err != nil {
		return nil, err
	}
	switch f.Kind {
	case kindFile:
		if _, err := ctx.Call("9pfs", "uk_9pfs_close", f.Fid); err != nil {
			// The fd dies regardless; 9PFS may have already dropped it.
			_ = err
		}
	case kindSock:
		if _, err := ctx.Call("lwip", "sock_net_close", f.Sock); err != nil {
			_ = err
		}
	case kindPipeR:
		if p := c.pipes[f.Pipe]; p != nil {
			p.ReadersGone = true
			if p.WritersGone {
				delete(c.pipes, f.Pipe)
			}
		}
	case kindPipeW:
		if p := c.pipes[f.Pipe]; p != nil {
			p.WritersGone = true
			if p.ReadersGone {
				delete(c.pipes, f.Pipe)
			}
		}
	}
	c.dropFD(ctx, f)
	return nil, nil
}

func (c *Comp) fsync(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	f, err := c.getFD(args, 0)
	if err != nil {
		return nil, err
	}
	if f.Kind != kindFile {
		return nil, core.EINVAL
	}
	if _, err := ctx.Call("9pfs", "uk_9pfs_fsync", f.Fid); err != nil {
		return nil, err
	}
	return nil, nil
}

func (c *Comp) fcntl(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	f, err := c.getFD(args, 0)
	if err != nil {
		return nil, err
	}
	cmd, err := args.Int(1)
	if err != nil {
		return nil, err
	}
	switch cmd {
	case 1: // F_GETFD-ish
		return ctx.Ret(0)
	case 1024 + 7: // F_SETFL O_APPEND toggle stand-in
		f.Append = true
		return ctx.Ret(0)
	default:
		return ctx.Ret(0)
	}
}

func (c *Comp) ioctl(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	f, err := c.getFD(args, 0)
	if err != nil {
		return nil, err
	}
	if f.Kind == kindSock {
		return ctx.Call("lwip", "sock_net_ioctl", f.Sock)
	}
	return ctx.Ret(0)
}

func (c *Comp) pipe(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	rfd, err := c.allocFD(ctx)
	if err != nil {
		return nil, err
	}
	// Reserve rfd before allocating wfd so they differ; during replay
	// both come from the logged results.
	rf := &file{FD: rfd, Kind: kindPipeR}
	c.installFD(ctx, rf)
	wfd, err := c.allocFD(ctx)
	if err == nil && wfd == rfd {
		// Replay path: second result slot.
		if rets, ok := ctx.ReplayRets(); ok {
			wfd, err = rets.Int(1)
		}
	}
	if err != nil {
		c.dropFD(ctx, rf)
		return nil, err
	}
	c.nextPipe++
	c.pipes[c.nextPipe] = &pipeBuf{}
	rf.Pipe = c.nextPipe
	wf := &file{FD: wfd, Kind: kindPipeW, Pipe: c.nextPipe}
	c.installFD(ctx, wf)
	return ctx.Ret(rfd, wfd)
}

func (c *Comp) stat(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	path, err := args.Str(0)
	if err != nil {
		return nil, err
	}
	rets, err := ctx.Call("9pfs", "uk_9pfs_lookup", path)
	if err != nil {
		return nil, err
	}
	exists, err := rets.Bool(0)
	if err != nil {
		return nil, err
	}
	if !exists {
		return nil, core.ENOENT
	}
	size, err1 := rets.Int64(1)
	isDir, err2 := rets.Bool(2)
	if err := cmp.Or(err1, err2); err != nil {
		return nil, err
	}
	return ctx.Ret(size, isDir)
}

func (c *Comp) mkdir(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	path, err := args.Str(0)
	if err != nil {
		return nil, err
	}
	return ctx.Call("9pfs", "uk_9pfs_mkdir", path)
}

func (c *Comp) unlink(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	path, err := args.Str(0)
	if err != nil {
		return nil, err
	}
	return ctx.Call("9pfs", "uk_9pfs_remove", path)
}

func (c *Comp) readdir(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	f, err := c.getFD(args, 0)
	if err != nil {
		return nil, err
	}
	if f.Kind != kindFile {
		return nil, core.ENOTDIR
	}
	return ctx.Call("9pfs", "uk_9pfs_readdir", f.Fid)
}

// vget resolves a path like the vnode-cache hook in Unikraft's vfscore;
// stateless here (no vnode cache), so unlogged.
func (c *Comp) vget(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	return c.stat(ctx, args)
}

func (c *Comp) allocSocket(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	fd, err := c.allocFD(ctx)
	if err != nil {
		return nil, err
	}
	c.fds[fd] = &file{FD: fd, Kind: kindSock}
	rets, err := ctx.Call("lwip", "socket")
	if err != nil {
		delete(c.fds, fd)
		return nil, err
	}
	sockID, err := rets.Int(0)
	if err != nil {
		return nil, err
	}
	f := &file{FD: fd, Kind: kindSock, Sock: sockID}
	c.installFD(ctx, f)
	return ctx.Ret(fd)
}

func (c *Comp) sockFD(args msg.Encoded) (*file, error) {
	f, err := c.getFD(args, 0)
	if err != nil {
		return nil, err
	}
	if f.Kind != kindSock {
		return nil, core.EINVAL
	}
	return f, nil
}

func (c *Comp) sockBind(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	f, err := c.sockFD(args)
	if err != nil {
		return nil, err
	}
	port, err := args.Int(1)
	if err != nil {
		return nil, err
	}
	return ctx.Call("lwip", "bind", f.Sock, port)
}

func (c *Comp) sockListen(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	f, err := c.sockFD(args)
	if err != nil {
		return nil, err
	}
	backlog, err := args.Int(1)
	if err != nil {
		return nil, err
	}
	return ctx.Call("lwip", "listen", f.Sock, backlog)
}

// sockAccept pops one ready connection and wraps it in a new fd.
func (c *Comp) sockAccept(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	f, err := c.sockFD(args)
	if err != nil {
		return nil, err
	}
	rets, err := ctx.Call("lwip", "accept", f.Sock)
	if err != nil {
		return nil, err // EAGAIN propagates; the syscall layer polls
	}
	sockID, err := rets.Int(0)
	if err != nil {
		return nil, err
	}
	raddr, err1 := rets.Uint64(1)
	rport, err2 := rets.Int(2)
	if err := cmp.Or(err1, err2); err != nil {
		return nil, err
	}
	fd, err := c.allocFD(ctx)
	if err != nil {
		// Undo the accept so the connection is not leaked.
		_, _ = ctx.Call("lwip", "sock_net_close", sockID)
		return nil, err
	}
	nf := &file{FD: fd, Kind: kindSock, Sock: sockID}
	c.installFD(ctx, nf)
	return ctx.Ret(fd, raddr, rport)
}

func (c *Comp) sockConnect(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	f, err := c.sockFD(args)
	if err != nil {
		return nil, err
	}
	raddr, err := args.Uint64(1)
	if err != nil {
		return nil, err
	}
	port, err := args.Int(2)
	if err != nil {
		return nil, err
	}
	return ctx.Call("lwip", "connect", f.Sock, raddr, port)
}

func (c *Comp) sockState(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	f, err := c.sockFD(args)
	if err != nil {
		return nil, err
	}
	return ctx.Call("lwip", "conn_state", f.Sock)
}

func (c *Comp) setsockopt(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	f, err := c.sockFD(args)
	if err != nil {
		return nil, err
	}
	opt, err := args.Int(1)
	if err != nil {
		return nil, err
	}
	val, err := args.Int(2)
	if err != nil {
		return nil, err
	}
	return ctx.Call("lwip", "setsockopt", f.Sock, opt, val)
}

func (c *Comp) getsockopt(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	f, err := c.sockFD(args)
	if err != nil {
		return nil, err
	}
	opt, err := args.Int(1)
	if err != nil {
		return nil, err
	}
	return ctx.Call("lwip", "getsockopt", f.Sock, opt)
}

func (c *Comp) sockShutdown(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	f, err := c.sockFD(args)
	if err != nil {
		return nil, err
	}
	return ctx.Call("lwip", "shutdown", f.Sock)
}

// EvictSession implements core.SessionEvictor: drop one descriptor's
// live state so replaying its log slice rebuilds it. The downstream
// resource behind the fd (a 9PFS fid, an LWIP socket) stays open — the
// replayed opener feeds its outbound call from the log and reclaims the
// same resource number. Pipe ends refuse: a pipe is one buffer behind
// two descriptors, and replaying either end's opener would mint both fds
// plus a fresh empty buffer, corrupting the surviving end.
func (c *Comp) EvictSession(ctx *core.Ctx, fd int) error {
	f, ok := c.fds[fd]
	if !ok {
		return nil // already gone; the replayed opener rebuilds it
	}
	if f.Kind == kindPipeR || f.Kind == kindPipeW {
		return fmt.Errorf("vfs: fd %d is a pipe end; pipes recover at the component rung", fd)
	}
	c.dropFD(ctx, f)
	return nil
}

// setOffsetSynthetic is the compaction target: it replays as a direct
// offset install, replacing a run of read/write/lseek records (§V-F).
func (c *Comp) setOffsetSynthetic(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	f, err := c.getFD(args, 0)
	if err != nil {
		return nil, err
	}
	off, err := args.Int64(1)
	if err != nil {
		return nil, err
	}
	f.Offset = off
	c.syncFD(ctx, f)
	return nil, nil
}

// CompactLog implements core.Compactor: replace each open file's
// transient records with one synthetic offset-install record (the
// paper's "extracts and resets the offset value in VFS"). The fds go in
// ascending order, so the log's append order, its domain layout and the
// synthetic records' replay order are the same on every run.
func (c *Comp) CompactLog(log *msg.Log) error {
	c.fdOrder = msg.SortedKeys(c.fdOrder, c.fds)
	for _, fd := range c.fdOrder {
		sess := fdSessions.ID(fd)
		f := c.fds[fd]
		if f.Kind != kindFile {
			// Socket transients carry no offset; just drop them.
			log.RemoveWhere(func(k msg.RecordKey) bool {
				return k.Session == sess && k.Class == msg.ClassTransient
			})
			continue
		}
		removed := log.RemoveWhere(func(k msg.RecordKey) bool {
			return k.Session == sess && (k.Class == msg.ClassTransient || k.Synthetic)
		})
		if removed > 0 {
			if err := log.AppendSynthetic("__vfs_set_offset", msg.Args{fd, f.Offset}, sess); err != nil {
				return err
			}
		}
	}
	return nil
}

// Reset implements core.ColdResetter for the checkpoint-ablation path.
func (c *Comp) Reset() {
	c.mounts = nil
	c.fds = nil
	c.pipes = nil
	c.nextPipe = 0
}

// fdLen and pipeLen are the fixed-width sizes of one fd and one pipe
// record in the checkpoint blob, without their counted bytes.
const (
	fdLen   = 8 + 1 + 4 + 8 + 8 + 1 + 8 + 8 + 8
	pipeLen = 8 + 1 + 1 + 4
)

// SaveState writes the control state a checkpoint restores: the mount
// table, the fd table and the pipes, each in key order, so one state has
// one encoding (msg.StateReader describes the format).
func (c *Comp) SaveState() ([]byte, error) {
	be := binary.BigEndian
	b := be.AppendUint64(nil, uint64(c.nextPipe))
	b = be.AppendUint32(b, uint32(len(c.mounts)))
	for _, point := range msg.SortedKeys(nil, c.mounts) {
		b = append(be.AppendUint32(b, uint32(len(point))), point...)
		b = append(be.AppendUint32(b, uint32(len(c.mounts[point]))), c.mounts[point]...)
	}
	b = be.AppendUint32(b, uint32(len(c.fds)))
	for _, fd := range msg.SortedKeys(nil, c.fds) {
		f := c.fds[fd]
		b = append(be.AppendUint64(b, uint64(fd)), byte(f.Kind))
		b = append(be.AppendUint32(b, uint32(len(f.Path))), f.Path...)
		b = be.AppendUint64(b, uint64(f.Fid))
		b = msg.AppendBool(be.AppendUint64(b, uint64(f.Offset)), f.Append)
		b = be.AppendUint64(b, uint64(f.Sock))
		b = be.AppendUint64(b, uint64(f.Pipe))
		b = be.AppendUint64(b, uint64(f.CtlBlock))
	}
	b = be.AppendUint32(b, uint32(len(c.pipes)))
	for _, id := range msg.SortedKeys(nil, c.pipes) {
		p := c.pipes[id]
		b = msg.AppendBool(msg.AppendBool(be.AppendUint64(b, uint64(id)), p.ReadersGone), p.WritersGone)
		b = append(be.AppendUint32(b, uint32(len(p.Data))), p.Data...)
	}
	return b, nil
}

// RestoreState implements core.StateSaver. It installs nothing unless
// the whole blob decodes.
func (c *Comp) RestoreState(p []byte) error {
	r := msg.NewStateReader(p)
	nextPipe := r.Int()
	mounts := make(map[string]string)
	for n := r.Count(8); n > 0; n-- {
		point := r.Str()
		mounts[point] = r.Str()
	}
	fds := make(map[int]*file)
	for n := r.Count(fdLen); n > 0; n-- {
		f := &file{FD: r.Int(), Kind: kind(r.U8()), Path: r.Str(), Fid: r.Int(), Offset: int64(r.U64()),
			Append: r.Bool(), Sock: r.Int(), Pipe: r.Int(), CtlBlock: mem.Addr(r.U64())}
		fds[f.FD] = f
	}
	pipes := make(map[int]*pipeBuf)
	for n := r.Count(pipeLen); n > 0; n-- {
		id := r.Int()
		pipes[id] = &pipeBuf{ReadersGone: r.Bool(), WritersGone: r.Bool(), Data: r.Bytes()}
	}
	if err := r.Done(); err != nil {
		return err
	}
	c.mounts, c.fds, c.pipes, c.nextPipe = mounts, fds, pipes, nextPipe
	return nil
}

var (
	_ core.Component         = (*Comp)(nil)
	_ core.LogPolicyProvider = (*Comp)(nil)
	_ core.Compactor         = (*Comp)(nil)
	_ core.StateSaver        = (*Comp)(nil)
	_ core.SessionEvictor    = (*Comp)(nil)
)
