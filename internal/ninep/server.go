package ninep

import (
	"fmt"
	"slices"
	"sort"
)

// Server is the host side of the 9P conversation: it owns the fid table
// for one attached client and dispatches T-messages against an ExportFS.
//
// The server's fid table living on the host is the property the 9PFS
// component's encapsulated restoration relies on: when the guest 9PFS
// reboots and replays its log, the fids it rebuilds still mean the same
// objects here, because the host was never restarted and the replay does
// not re-send T-messages.
type Server struct {
	fs   *ExportFS
	fids map[uint32]*serverFid
	// Stats
	Handled uint64
}

type serverFid struct {
	n    *node
	open bool
	mode uint8
}

// NewServer creates a server over fs with an empty fid table.
func NewServer(fs *ExportFS) *Server {
	return &Server{fs: fs, fids: make(map[uint32]*serverFid)}
}

func rerror(tag uint16, ename string) *Fcall {
	return &Fcall{Type: Rerror, Tag: tag, Ename: ename}
}

// Handle processes one T-message and returns its R-message. Protocol
// errors return Rerror rather than a Go error; a Go error means the
// message was not a T-message at all.
func (s *Server) Handle(t *Fcall) (*Fcall, error) {
	s.Handled++
	switch t.Type {
	case Tversion:
		return &Fcall{Type: Rversion, Tag: t.Tag, Msize: t.Msize, Version: "9P2000.vamp"}, nil
	case Tattach:
		if _, dup := s.fids[t.Fid]; dup {
			return rerror(t.Tag, "EINVAL: fid in use"), nil
		}
		s.fids[t.Fid] = &serverFid{n: s.fs.root}
		return &Fcall{Type: Rattach, Tag: t.Tag, Qid: s.fs.root.qid}, nil
	case Twalk:
		fid, ok := s.fids[t.Fid]
		if !ok {
			return rerror(t.Tag, "EBADF: unknown fid"), nil
		}
		if t.NewFid != t.Fid {
			if _, dup := s.fids[t.NewFid]; dup {
				return rerror(t.Tag, "EINVAL: newfid in use"), nil
			}
		}
		n := fid.n
		qids := make([]Qid, 0, len(t.Names))
		for _, name := range t.Names {
			child, err := s.fs.walkChild(n, name)
			if err != nil {
				if len(qids) == 0 {
					return rerror(t.Tag, err.Error()), nil
				}
				// Partial walk: return the qids resolved so far; the
				// client sees fewer qids than names and knows it failed.
				return &Fcall{Type: Rwalk, Tag: t.Tag, Qids: qids}, nil
			}
			n = child
			qids = append(qids, n.qid)
		}
		s.fids[t.NewFid] = &serverFid{n: n}
		return &Fcall{Type: Rwalk, Tag: t.Tag, Qids: qids}, nil
	case Topen:
		fid, ok := s.fids[t.Fid]
		if !ok {
			return rerror(t.Tag, "EBADF: unknown fid"), nil
		}
		if fid.n.dir && t.Mode&^OTRUNC != OREAD {
			return rerror(t.Tag, "EISDIR"), nil
		}
		if t.Mode&OTRUNC != 0 && !fid.n.dir {
			fid.n.data = nil
			fid.n.qid.Version++
		}
		fid.open = true
		fid.mode = t.Mode &^ OTRUNC
		return &Fcall{Type: Ropen, Tag: t.Tag, Qid: fid.n.qid}, nil
	case Tcreate:
		fid, ok := s.fids[t.Fid]
		if !ok {
			return rerror(t.Tag, "EBADF: unknown fid"), nil
		}
		child, err := s.fs.create(fid.n, t.Name, t.Perm&DMDIR != 0)
		if err != nil {
			return rerror(t.Tag, err.Error()), nil
		}
		// As in 9P, the fid moves to the created file, open.
		fid.n = child
		fid.open = true
		fid.mode = t.Mode &^ OTRUNC
		return &Fcall{Type: Rcreate, Tag: t.Tag, Qid: child.qid}, nil
	case Tread:
		fid, ok := s.fids[t.Fid]
		if !ok {
			return rerror(t.Tag, "EBADF: unknown fid"), nil
		}
		if !fid.open {
			return rerror(t.Tag, "EBADF: fid not open"), nil
		}
		if fid.n.dir {
			return s.readDir(t, fid)
		}
		data := fid.n.data
		if t.Offset >= uint64(len(data)) {
			return &Fcall{Type: Rread, Tag: t.Tag, Data: nil}, nil
		}
		end := t.Offset + uint64(t.Count)
		if end > uint64(len(data)) {
			end = uint64(len(data))
		}
		out := make([]byte, end-t.Offset)
		copy(out, data[t.Offset:end])
		return &Fcall{Type: Rread, Tag: t.Tag, Data: out}, nil
	case Twrite:
		fid, ok := s.fids[t.Fid]
		if !ok {
			return rerror(t.Tag, "EBADF: unknown fid"), nil
		}
		if !fid.open || fid.mode == OREAD {
			return rerror(t.Tag, "EBADF: fid not open for writing"), nil
		}
		if fid.n.dir {
			return rerror(t.Tag, "EISDIR"), nil
		}
		end := t.Offset + uint64(len(t.Data))
		if size := uint64(len(fid.n.data)); end > size {
			// Grow with amortised capacity: an append-only file (an AOF, a
			// journal) must not be re-copied at its full size per write.
			fid.n.data = slices.Grow(fid.n.data, int(end-size))[:end]
			if t.Offset > size {
				clear(fid.n.data[size:t.Offset]) // a hole reads as zeros
			}
		}
		copy(fid.n.data[t.Offset:end], t.Data)
		fid.n.qid.Version++
		s.fs.WriteCount++
		return &Fcall{Type: Rwrite, Tag: t.Tag, Count: uint32(len(t.Data))}, nil
	case Tclunk:
		if _, ok := s.fids[t.Fid]; !ok {
			return rerror(t.Tag, "EBADF: unknown fid"), nil
		}
		delete(s.fids, t.Fid)
		return &Fcall{Type: Rclunk, Tag: t.Tag}, nil
	case Tremove:
		fid, ok := s.fids[t.Fid]
		if !ok {
			return rerror(t.Tag, "EBADF: unknown fid"), nil
		}
		delete(s.fids, t.Fid) // remove always clunks
		if fid.n == s.fs.root {
			return rerror(t.Tag, "EINVAL: cannot remove root"), nil
		}
		if fid.n.dir && len(fid.n.children) > 0 {
			return rerror(t.Tag, "ENOTEMPTY"), nil
		}
		// Find and unlink from the parent by search (nodes are unique).
		if !s.unlink(s.fs.root, fid.n) {
			return rerror(t.Tag, "ENOENT"), nil
		}
		return &Fcall{Type: Rremove, Tag: t.Tag}, nil
	case Tstat:
		fid, ok := s.fids[t.Fid]
		if !ok {
			return rerror(t.Tag, "EBADF: unknown fid"), nil
		}
		mode := uint32(0644)
		if fid.n.dir {
			mode |= DMDIR
		}
		return &Fcall{Type: Rstat, Tag: t.Tag, Stat: Stat{
			Qid: fid.n.qid, Name: fid.n.name, Length: uint64(len(fid.n.data)), Mode: mode,
		}}, nil
	case Tfsync:
		fid, ok := s.fids[t.Fid]
		if !ok {
			return rerror(t.Tag, "EBADF: unknown fid"), nil
		}
		_ = fid
		s.fs.FsyncCount++
		return &Fcall{Type: Rfsync, Tag: t.Tag}, nil
	default:
		return nil, fmt.Errorf("ninep: server got non-T message %v", t.Type)
	}
}

// readDir encodes directory entries as newline-separated names — a
// simplification of 9P's stat-array directory reads that keeps the
// transport honest without stat-marshalling machinery.
func (s *Server) readDir(t *Fcall, fid *serverFid) (*Fcall, error) {
	names := make([]byte, 0, 64)
	keys := make([]string, 0, len(fid.n.children))
	for name := range fid.n.children {
		keys = append(keys, name)
	}
	sort.Strings(keys)
	for _, name := range keys {
		names = append(names, name...)
		names = append(names, '\n')
	}
	if t.Offset >= uint64(len(names)) {
		return &Fcall{Type: Rread, Tag: t.Tag}, nil
	}
	end := t.Offset + uint64(t.Count)
	if end > uint64(len(names)) {
		end = uint64(len(names))
	}
	return &Fcall{Type: Rread, Tag: t.Tag, Data: names[t.Offset:end]}, nil
}

func (s *Server) unlink(dir, target *node) bool {
	for name, child := range dir.children {
		if child == target {
			delete(dir.children, name)
			return true
		}
		if child.dir && s.unlink(child, target) {
			return true
		}
	}
	return false
}
