package ninep

import (
	"vampos/internal/core"
	"vampos/internal/mem"
	"vampos/internal/msg"
)

// Comp is the 9PFS component: the guest-side 9P client that Unikraft's
// VFS mounts as its file system backend (paper Table I). It is stateful
// (the fid table) but reboots by cold re-init plus log replay — the
// paper applies checkpoint-based initialization only to VFS and LWIP,
// because 9PFS's own initialisation touches nothing else.
//
// During the component's encapsulated restoration, the replayed
// mount/open/lookup calls are fed their original p9_rpc results from the
// log, so the host server (whose fid table survived) is not contacted
// and the rebuilt client fids line up with the host's — the consistency
// argument of §V-B.
type Comp struct {
	attached bool
	rootFid  int
	fids     map[int]*fidInfo
	tag      uint16

	resp []byte // rpc's response frame, decoded before rpc yields

	// Stats
	RPCs uint64
	// MountAttempts counts uk_9pfs_mount invocations — the restore
	// side-effect the checkpoint ablation observes.
	MountAttempts uint64
}

type fidInfo struct {
	Fid      int
	Path     string
	Open     bool
	Mode     uint8
	ctlBlock mem.Addr
}

// chunk is the largest payload per 9P read/write RPC (an msize stand-in).
const chunk = 8192

// NewFS creates the 9PFS component.
func NewFS() *Comp { return &Comp{} }

// Describe implements core.Component.
func (c *Comp) Describe() core.Descriptor {
	return core.Descriptor{
		Name: "9pfs", Stateful: true, Checkpoint: false,
		HeapPages: 256, DomainPages: 256,
		Deps: []string{"virtio"},
	}
}

// Init implements core.Component: 9PFS boots idle; the attach happens on
// the first uk_9pfs_mount (replayed from the log after a reboot).
func (c *Comp) Init(*core.Ctx) error {
	if c.fids == nil {
		c.Reset()
	}
	return nil
}

// Reset implements core.ColdResetter.
func (c *Comp) Reset() {
	c.attached = false
	c.rootFid = 0
	c.fids = make(map[int]*fidInfo)
	c.tag = 0
}

// Exports implements core.Component, named per the paper's Table II.
func (c *Comp) Exports() map[string]core.Handler {
	return map[string]core.Handler{
		"uk_9pfs_mount":   c.mount,
		"uk_9pfs_open":    c.open,
		"uk_9pfs_close":   c.close,
		"uk_9pfs_read":    c.read,
		"uk_9pfs_write":   c.write,
		"uk_9pfs_fsync":   c.fsync,
		"uk_9pfs_stat":    c.stat,
		"uk_9pfs_lookup":  c.lookup,
		"uk_9pfs_mkdir":   c.mkdir,
		"uk_9pfs_remove":  c.remove,
		"uk_9pfs_readdir": c.readdir,
	}
}

// fidSessions is the namespace of 9PFS sessions: one per fid.
var fidSessions = msg.NewNamespace("fid")

// LogPolicies implements core.LogPolicyProvider (paper Table II: mount,
// unmount, open, close, lookup, inactive, mkdir). Data-path reads and
// writes keep no 9PFS state — the offsets live in VFS — so they are not
// logged, but a fault in them, as in fsync, stat and readdir, is
// attributable to the fid in argument zero. Our lookup keeps no state
// either (no vnode cache), so it is deliberately unlogged; DESIGN.md
// records the deviation. Path-based calls name no session.
func (c *Comp) LogPolicies() (*msg.Namespace, map[string]core.LogPolicy) {
	durable := core.LogPolicy{Class: msg.ClassDurable}
	attributable := core.LogPolicy{FaultByArg0: true}
	return fidSessions, map[string]core.LogPolicy{
		"uk_9pfs_mount":   durable,
		"uk_9pfs_mkdir":   durable,
		"uk_9pfs_open":    {Class: msg.ClassOpener, Session: core.Ret0},
		"uk_9pfs_close":   {Class: msg.ClassCanceler, Session: core.Arg0, FaultByArg0: true},
		"uk_9pfs_read":    attributable,
		"uk_9pfs_write":   attributable,
		"uk_9pfs_fsync":   attributable,
		"uk_9pfs_stat":    attributable,
		"uk_9pfs_readdir": attributable,
	}
}

// rpc performs one 9P round trip through the VIRTIO driver.
func (c *Comp) rpc(ctx *core.Ctx, t *Fcall) (*Fcall, error) {
	c.tag++
	t.Tag = c.tag
	req, err := Encode(t)
	if err != nil {
		return nil, core.Errno("EIO: " + err.Error())
	}
	rets, err := ctx.Call("virtio", "p9_rpc", req)
	if err != nil {
		return nil, err
	}
	respBytes, err := rets.AppendBytes(c.resp[:0], 0)
	if err != nil {
		return nil, err
	}
	c.resp = respBytes
	resp, err := Decode(respBytes)
	if err != nil {
		// The reply crossed the host boundary, so a malformed frame means
		// the transport or the host side is compromised or corrupted.
		// Under active defense that is attack-shaped: crash here so the
		// runtime reboots 9PFS and the caller's retried RPC sees a clean
		// fid table. Without defense, surface a typed protocol errno — not
		// EIO — so callers can tell corruption from a failed disk op.
		if ctx.Runtime().DefenseEnabled() {
			panic("9pfs: corrupted host frame: " + err.Error())
		}
		return nil, core.Errno("EBADMSG: " + err.Error())
	}
	c.RPCs++
	if resp.Type == Rerror {
		return nil, core.Errno(resp.Ename)
	}
	return resp, nil
}

// allocFid picks the lowest free fid (>= 1; 0 is the attach fid). Reuse
// is what lets session shrinking prune stale open/close pairs. During
// replay the original fid is reproduced from the logged return value.
func (c *Comp) allocFid(ctx *core.Ctx) int {
	if rets, ok := ctx.ReplayRets(); ok {
		if fid, err := rets.Int(0); err == nil {
			return fid
		}
	}
	for fid := 1; ; fid++ {
		if _, used := c.fids[fid]; !used {
			return fid
		}
	}
}

func (c *Comp) mount(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	c.MountAttempts++
	if c.attached {
		return nil, core.EEXIST
	}
	if _, err := c.rpc(ctx, &Fcall{Type: Tversion, Msize: 65536, Version: "9P2000"}); err != nil {
		return nil, err
	}
	if _, err := c.rpc(ctx, &Fcall{Type: Tattach, Fid: 0, AFid: NoFid, Uname: "vampos", Aname: "/"}); err != nil {
		return nil, err
	}
	c.attached = true
	c.rootFid = 0
	return nil, nil
}

// walkTo clones the root fid to newFid positioned at path.
func (c *Comp) walkTo(ctx *core.Ctx, newFid int, parts []string) error {
	resp, err := c.rpc(ctx, &Fcall{
		Type: Twalk, Fid: uint32(c.rootFid), NewFid: uint32(newFid), Names: parts,
	})
	if err != nil {
		return err
	}
	if len(resp.Qids) != len(parts) {
		return core.ENOENT
	}
	return nil
}

// open resolves (and with O_CREATE, creates) path and returns a fid.
// Flags use the VFS flag vocabulary re-encoded into 9P modes.
func (c *Comp) open(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	path, err := args.Str(0)
	if err != nil {
		return nil, err
	}
	flags, err := args.Int(1)
	if err != nil {
		return nil, err
	}
	if !c.attached {
		return nil, core.EIO
	}
	mode := uint8(flags & 3) // O_RDONLY/O_WRONLY/O_RDWR
	if flags&0x200 != 0 {    // O_TRUNC
		mode |= OTRUNC
	}
	parts := splitPath(path)
	fid := c.allocFid(ctx)
	// Reserve the fid before the first RPC: handlers yield inside RPCs,
	// and a concurrent open (vanilla mode) must not pick the same fid.
	info := &fidInfo{Fid: fid, Path: path}
	c.fids[fid] = info
	fail := func(err error, clunk bool) (msg.Encoded, error) {
		if clunk {
			c.clunkQuiet(ctx, fid)
		}
		delete(c.fids, fid)
		return nil, err
	}
	if err := c.walkTo(ctx, fid, parts); err == nil {
		if _, err := c.rpc(ctx, &Fcall{Type: Topen, Fid: uint32(fid), Mode: mode}); err != nil {
			return fail(err, true)
		}
	} else {
		if flags&0x40 == 0 { // no O_CREATE
			return fail(core.ENOENT, false)
		}
		if len(parts) == 0 {
			return fail(core.EISDIR, false)
		}
		if err := c.walkTo(ctx, fid, parts[:len(parts)-1]); err != nil {
			return fail(err, false)
		}
		if _, err := c.rpc(ctx, &Fcall{
			Type: Tcreate, Fid: uint32(fid), Name: parts[len(parts)-1], Perm: 0644, Mode: mode,
		}); err != nil {
			return fail(err, true)
		}
	}
	info.Open = true
	info.Mode = mode
	if addr, err := ctx.Heap().Alloc(128); err == nil {
		info.ctlBlock = addr
	}
	return ctx.Ret(fid)
}

func (c *Comp) clunkQuiet(ctx *core.Ctx, fid int) {
	_, _ = c.rpc(ctx, &Fcall{Type: Tclunk, Fid: uint32(fid)})
}

func (c *Comp) getFid(args msg.Encoded, idx int) (*fidInfo, error) {
	fid, err := args.Int(idx)
	if err != nil {
		return nil, err
	}
	info, ok := c.fids[fid]
	if !ok {
		return nil, core.EBADF
	}
	return info, nil
}

func (c *Comp) close(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	info, err := c.getFid(args, 0)
	if err != nil {
		return nil, err
	}
	c.clunkQuiet(ctx, info.Fid)
	if info.ctlBlock != 0 {
		_ = ctx.Heap().Free(info.ctlBlock)
	}
	delete(c.fids, info.Fid)
	return nil, nil
}

func (c *Comp) read(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	info, err := c.getFid(args, 0)
	if err != nil {
		return nil, err
	}
	offset, err := args.Int64(1)
	if err != nil {
		return nil, err
	}
	count, err := args.Int(2)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, count)
	for count > 0 {
		n := count
		if n > chunk {
			n = chunk
		}
		resp, err := c.rpc(ctx, &Fcall{
			Type: Tread, Fid: uint32(info.Fid), Offset: uint64(offset), Count: uint32(n),
		})
		if err != nil {
			return nil, err
		}
		if len(resp.Data) == 0 {
			break // EOF
		}
		out = append(out, resp.Data...)
		offset += int64(len(resp.Data))
		count -= len(resp.Data)
		if len(resp.Data) < n {
			break
		}
	}
	return ctx.Ret(out)
}

func (c *Comp) write(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	info, err := c.getFid(args, 0)
	if err != nil {
		return nil, err
	}
	offset, err := args.Int64(1)
	if err != nil {
		return nil, err
	}
	data, err := ctx.Bytes(args, 2)
	if err != nil {
		return nil, err
	}
	written := 0
	for written < len(data) {
		n := len(data) - written
		if n > chunk {
			n = chunk
		}
		resp, err := c.rpc(ctx, &Fcall{
			Type: Twrite, Fid: uint32(info.Fid),
			Offset: uint64(offset) + uint64(written),
			Data:   data[written : written+n],
		})
		if err != nil {
			return nil, err
		}
		if resp.Count == 0 {
			return nil, core.EIO
		}
		written += int(resp.Count)
	}
	return ctx.Ret(written)
}

func (c *Comp) fsync(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	info, err := c.getFid(args, 0)
	if err != nil {
		return nil, err
	}
	if _, err := c.rpc(ctx, &Fcall{Type: Tfsync, Fid: uint32(info.Fid)}); err != nil {
		return nil, err
	}
	return nil, nil
}

func (c *Comp) stat(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	info, err := c.getFid(args, 0)
	if err != nil {
		return nil, err
	}
	resp, err := c.rpc(ctx, &Fcall{Type: Tstat, Fid: uint32(info.Fid)})
	if err != nil {
		return nil, err
	}
	return ctx.Ret(int64(resp.Stat.Length), resp.Stat.Qid.IsDir())
}

// lookup resolves a path without keeping state: (exists, size, isdir).
func (c *Comp) lookup(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	path, err := args.Str(0)
	if err != nil {
		return nil, err
	}
	if !c.attached {
		return nil, core.EIO
	}
	fid := c.tempFid()
	if err := c.walkTo(ctx, fid, splitPath(path)); err != nil {
		return ctx.Ret(false, int64(0), false)
	}
	resp, err := c.rpc(ctx, &Fcall{Type: Tstat, Fid: uint32(fid)})
	c.clunkQuiet(ctx, fid)
	if err != nil {
		return nil, err
	}
	return ctx.Ret(true, int64(resp.Stat.Length), resp.Stat.Qid.IsDir())
}

// tempFid returns a fid for transient use, above the normal range so it
// never collides with replay-reproduced fids.
func (c *Comp) tempFid() int { return 1 << 20 }

func (c *Comp) mkdir(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	path, err := args.Str(0)
	if err != nil {
		return nil, err
	}
	parts := splitPath(path)
	if len(parts) == 0 {
		return nil, core.EEXIST
	}
	fid := c.tempFid()
	if err := c.walkTo(ctx, fid, parts[:len(parts)-1]); err != nil {
		return nil, err
	}
	_, err = c.rpc(ctx, &Fcall{
		Type: Tcreate, Fid: uint32(fid), Name: parts[len(parts)-1],
		Perm: DMDIR | 0755, Mode: OREAD,
	})
	c.clunkQuiet(ctx, fid)
	if err != nil {
		return nil, err
	}
	return nil, nil
}

func (c *Comp) remove(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	path, err := args.Str(0)
	if err != nil {
		return nil, err
	}
	fid := c.tempFid()
	if err := c.walkTo(ctx, fid, splitPath(path)); err != nil {
		return nil, err
	}
	if _, err := c.rpc(ctx, &Fcall{Type: Tremove, Fid: uint32(fid)}); err != nil {
		return nil, err
	}
	return nil, nil
}

func (c *Comp) readdir(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
	info, err := c.getFid(args, 0)
	if err != nil {
		return nil, err
	}
	resp, err := c.rpc(ctx, &Fcall{
		Type: Tread, Fid: uint32(info.Fid), Offset: 0, Count: 1 << 20,
	})
	if err != nil {
		return nil, err
	}
	return ctx.Ret(resp.Data)
}

// EvictSession implements core.SessionEvictor: drop one fid's client-side
// bookkeeping WITHOUT clunking it — the host server's fid stays attached,
// and the replayed uk_9pfs_open feeds its RPCs from the log, reclaiming
// the same fid number against the still-valid host entry (the §V-B
// consistency argument, applied one fid at a time).
func (c *Comp) EvictSession(ctx *core.Ctx, fid int) error {
	info, ok := c.fids[fid]
	if !ok {
		return nil // already gone; the replayed opener rebuilds it
	}
	if info.ctlBlock != 0 {
		_ = ctx.Heap().Free(info.ctlBlock)
		info.ctlBlock = 0
	}
	delete(c.fids, fid)
	return nil
}

var (
	_ core.Component         = (*Comp)(nil)
	_ core.LogPolicyProvider = (*Comp)(nil)
	_ core.ColdResetter      = (*Comp)(nil)
	_ core.SessionEvictor    = (*Comp)(nil)
)
