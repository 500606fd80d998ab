package ninep

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestFcallCodecRoundTrip(t *testing.T) {
	cases := []*Fcall{
		{Type: Tversion, Tag: 0xFFFF, Msize: 8192, Version: "9P2000.vamp"},
		{Type: Rversion, Tag: 1, Msize: 8192, Version: "9P2000.vamp"},
		{Type: Tattach, Tag: 2, Fid: 0, AFid: NoFid, Uname: "root", Aname: "/"},
		{Type: Rattach, Tag: 2, Qid: Qid{Type: QTDir, Version: 1, Path: 42}},
		{Type: Rerror, Tag: 3, Ename: "ENOENT"},
		{Type: Twalk, Tag: 4, Fid: 0, NewFid: 1, Names: []string{"var", "www", "index.html"}},
		{Type: Rwalk, Tag: 4, Qids: []Qid{{Path: 1}, {Path: 2}, {Path: 3}}},
		{Type: Topen, Tag: 5, Fid: 1, Mode: ORDWR | OTRUNC},
		{Type: Ropen, Tag: 5, Qid: Qid{Path: 3, Version: 7}},
		{Type: Tcreate, Tag: 6, Fid: 1, Name: "new.txt", Perm: 0644, Mode: OWRITE},
		{Type: Rcreate, Tag: 6, Qid: Qid{Path: 9}},
		{Type: Tread, Tag: 7, Fid: 1, Offset: 4096, Count: 512},
		{Type: Rread, Tag: 7, Data: []byte("contents")},
		{Type: Twrite, Tag: 8, Fid: 1, Offset: 0, Data: []byte{0, 1, 2, 255}},
		{Type: Rwrite, Tag: 8, Count: 4},
		{Type: Tclunk, Tag: 9, Fid: 1},
		{Type: Rclunk, Tag: 9},
		{Type: Tremove, Tag: 10, Fid: 2},
		{Type: Rremove, Tag: 10},
		{Type: Tstat, Tag: 11, Fid: 0},
		{Type: Rstat, Tag: 11, Stat: Stat{Qid: Qid{Path: 5}, Name: "f", Length: 100, Mode: 0644}},
		{Type: Tfsync, Tag: 12, Fid: 3},
		{Type: Rfsync, Tag: 12},
	}
	for _, in := range cases {
		t.Run(in.Type.String(), func(t *testing.T) {
			p, err := Encode(in)
			if err != nil {
				t.Fatal(err)
			}
			out, err := Decode(p)
			if err != nil {
				t.Fatal(err)
			}
			if out.Type != in.Type || out.Tag != in.Tag {
				t.Fatalf("header: got %v tag %d", out.Type, out.Tag)
			}
			switch in.Type {
			case Twalk:
				if strings.Join(out.Names, "/") != strings.Join(in.Names, "/") {
					t.Fatalf("names = %v", out.Names)
				}
			case Rwalk:
				if len(out.Qids) != len(in.Qids) {
					t.Fatalf("qids = %v", out.Qids)
				}
			case Rread, Twrite:
				if !bytes.Equal(out.Data, in.Data) {
					t.Fatalf("data = %v", out.Data)
				}
			case Rstat:
				if out.Stat != in.Stat {
					t.Fatalf("stat = %+v", out.Stat)
				}
			}
		})
	}
}

func TestDecodeRejectsCorruptHeader(t *testing.T) {
	if _, err := Decode([]byte{1, 2}); err == nil {
		t.Fatal("decoded 2-byte message")
	}
	p, err := Encode(&Fcall{Type: Tclunk, Tag: 1, Fid: 5})
	if err != nil {
		t.Fatal(err)
	}
	p[0] = 0xFF // wrong size field
	if _, err := Decode(p); err == nil {
		t.Fatal("decoded message with wrong size field")
	}
}

func TestDecodeNeverPanicsProperty(t *testing.T) {
	f := func(p []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = Decode(p)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestExportFSHostOps(t *testing.T) {
	fs := NewExportFS()
	if err := fs.MkdirAll("/var/www"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/var/www/index.html", []byte("<html>")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/var/www/index.html")
	if err != nil || string(got) != "<html>" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	names, err := fs.List("/var/www")
	if err != nil || len(names) != 1 || names[0] != "index.html" {
		t.Fatalf("List = %v, %v", names, err)
	}
	size, err := fs.Size("/var/www/index.html")
	if err != nil || size != 6 {
		t.Fatalf("Size = %d, %v", size, err)
	}
	if fs.TotalBytes() != 6 {
		t.Fatalf("TotalBytes = %d", fs.TotalBytes())
	}
	if err := fs.Remove("/var/www/index.html"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/var/www/index.html"); err == nil {
		t.Fatal("read after remove succeeded")
	}
	if err := fs.Remove("/var"); err == nil {
		t.Fatal("removed non-empty directory")
	}
}

// client drives the server directly (transport tested elsewhere).
type client struct {
	t   *testing.T
	s   *Server
	tag uint16
}

func (c *client) rpc(f *Fcall) *Fcall {
	c.t.Helper()
	c.tag++
	f.Tag = c.tag
	// Round-trip through the codec so the server sees decoded bytes.
	p, err := Encode(f)
	if err != nil {
		c.t.Fatal(err)
	}
	req, err := Decode(p)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.s.Handle(req)
	if err != nil {
		c.t.Fatal(err)
	}
	if resp.Tag != c.tag {
		c.t.Fatalf("tag mismatch: %d != %d", resp.Tag, c.tag)
	}
	return resp
}

func (c *client) mustOK(f *Fcall) *Fcall {
	c.t.Helper()
	r := c.rpc(f)
	if r.Type == Rerror {
		c.t.Fatalf("%v failed: %s", f.Type, r.Ename)
	}
	return r
}

func TestServerSession(t *testing.T) {
	fs := NewExportFS()
	if err := fs.MkdirAll("/data"); err != nil {
		t.Fatal(err)
	}
	c := &client{t: t, s: NewServer(fs)}

	r := c.mustOK(&Fcall{Type: Tversion, Msize: 8192, Version: "9P2000"})
	if r.Version == "" {
		t.Fatal("no version negotiated")
	}
	c.mustOK(&Fcall{Type: Tattach, Fid: 0, AFid: NoFid, Uname: "vamp", Aname: "/"})

	// Walk to /data, create a file, write, read back.
	r = c.mustOK(&Fcall{Type: Twalk, Fid: 0, NewFid: 1, Names: []string{"data"}})
	if len(r.Qids) != 1 || !r.Qids[0].IsDir() {
		t.Fatalf("walk qids = %v", r.Qids)
	}
	c.mustOK(&Fcall{Type: Tcreate, Fid: 1, Name: "log.txt", Perm: 0644, Mode: OWRITE})
	r = c.mustOK(&Fcall{Type: Twrite, Fid: 1, Offset: 0, Data: []byte("hello ")})
	if r.Count != 6 {
		t.Fatalf("write count = %d", r.Count)
	}
	c.mustOK(&Fcall{Type: Twrite, Fid: 1, Offset: 6, Data: []byte("9p")})
	c.mustOK(&Fcall{Type: Tfsync, Fid: 1})
	c.mustOK(&Fcall{Type: Tclunk, Fid: 1})

	// Fresh fid for reading.
	c.mustOK(&Fcall{Type: Twalk, Fid: 0, NewFid: 2, Names: []string{"data", "log.txt"}})
	c.mustOK(&Fcall{Type: Topen, Fid: 2, Mode: OREAD})
	r = c.mustOK(&Fcall{Type: Tread, Fid: 2, Offset: 0, Count: 100})
	if string(r.Data) != "hello 9p" {
		t.Fatalf("read back %q", r.Data)
	}
	r = c.mustOK(&Fcall{Type: Tstat, Fid: 2})
	if r.Stat.Length != 8 || r.Stat.Name != "log.txt" {
		t.Fatalf("stat = %+v", r.Stat)
	}
	c.mustOK(&Fcall{Type: Tclunk, Fid: 2})

	// Host view agrees.
	got, err := fs.ReadFile("/data/log.txt")
	if err != nil || string(got) != "hello 9p" {
		t.Fatalf("host view = %q, %v", got, err)
	}
	if fs.FsyncCount != 1 {
		t.Fatalf("FsyncCount = %d", fs.FsyncCount)
	}
	if c.s.Fids() != 1 { // only the attach fid remains
		t.Fatalf("live fids = %d, want 1", c.s.Fids())
	}
}

func TestServerErrors(t *testing.T) {
	c := &client{t: t, s: NewServer(NewExportFS())}
	c.mustOK(&Fcall{Type: Tattach, Fid: 0, AFid: NoFid})

	if r := c.rpc(&Fcall{Type: Twalk, Fid: 0, NewFid: 1, Names: []string{"ghost"}}); r.Type != Rerror {
		t.Fatal("walk to missing name succeeded")
	}
	if r := c.rpc(&Fcall{Type: Tread, Fid: 99, Count: 1}); r.Type != Rerror {
		t.Fatal("read on unknown fid succeeded")
	}
	// Reading an un-opened fid fails.
	c.mustOK(&Fcall{Type: Twalk, Fid: 0, NewFid: 2})
	if r := c.rpc(&Fcall{Type: Tread, Fid: 2, Count: 1}); r.Type != Rerror {
		t.Fatal("read on un-opened fid succeeded")
	}
	// Writing a read-only fid fails.
	c.mustOK(&Fcall{Type: Tcreate, Fid: 2, Name: "f", Mode: OREAD})
	if r := c.rpc(&Fcall{Type: Twrite, Fid: 2, Data: []byte("x")}); r.Type != Rerror {
		t.Fatal("write on read-only fid succeeded")
	}
	// Duplicate attach fid rejected.
	if r := c.rpc(&Fcall{Type: Tattach, Fid: 0, AFid: NoFid}); r.Type != Rerror {
		t.Fatal("duplicate attach fid accepted")
	}
}

func TestServerTruncateOnOpen(t *testing.T) {
	fs := NewExportFS()
	if err := fs.WriteFile("/f", []byte("old contents")); err != nil {
		t.Fatal(err)
	}
	c := &client{t: t, s: NewServer(fs)}
	c.mustOK(&Fcall{Type: Tattach, Fid: 0, AFid: NoFid})
	c.mustOK(&Fcall{Type: Twalk, Fid: 0, NewFid: 1, Names: []string{"f"}})
	c.mustOK(&Fcall{Type: Topen, Fid: 1, Mode: OWRITE | OTRUNC})
	if size, _ := fs.Size("/f"); size != 0 {
		t.Fatalf("size after O_TRUNC open = %d", size)
	}
}

// TestServerWriteGrowthKeepsHolesZeroAndCopiesPrivate: file growth reuses
// spare capacity, so a write past EOF must zero the gap itself — after a
// truncating open, after a host-side replace, and when the capacity still
// holds a longer file's bytes — and a ReadFile copy must not alias the
// buffer that later appends land in.
func TestServerWriteGrowthKeepsHolesZeroAndCopiesPrivate(t *testing.T) {
	fs := NewExportFS()
	if err := fs.WriteFile("/f", bytes.Repeat([]byte{0xEE}, 64)); err != nil {
		t.Fatal(err)
	}
	c := &client{t: t, s: NewServer(fs)}
	c.mustOK(&Fcall{Type: Tattach, Fid: 0, AFid: NoFid})
	c.mustOK(&Fcall{Type: Twalk, Fid: 0, NewFid: 1, Names: []string{"f"}})
	c.mustOK(&Fcall{Type: Topen, Fid: 1, Mode: ORDWR})
	holeAt := func(when string, size, off int) {
		t.Helper()
		c.mustOK(&Fcall{Type: Twrite, Fid: 1, Offset: uint64(off), Data: []byte("tail")})
		got, err := fs.ReadFile("/f")
		if err != nil || len(got) != off+4 || string(got[off:]) != "tail" {
			t.Fatalf("%s: file = %d bytes, %v", when, len(got), err)
		}
		if hole := got[size:off]; !bytes.Equal(hole, make([]byte, len(hole))) {
			t.Fatalf("%s: hole [%d,%d) reads %x, want zeros", when, size, off, hole)
		}
	}

	// Appends grow the buffer past its length; a copy taken in between
	// keeps its own bytes when the next append lands in the spare room.
	for i := 0; i < 8; i++ {
		c.mustOK(&Fcall{Type: Twrite, Fid: 1, Offset: uint64(64 + i), Data: []byte{0xEE}})
	}
	n, err := fs.lookup("/f")
	if err != nil || cap(n.data) == len(n.data) {
		t.Fatalf("appends left no spare capacity (len %d cap %d, %v): growth is not amortised", len(n.data), cap(n.data), err)
	}
	before, _ := fs.ReadFile("/f")
	c.mustOK(&Fcall{Type: Twrite, Fid: 1, Offset: 72, Data: []byte{0x11}})
	before[0] = 0x22
	after, _ := fs.ReadFile("/f")
	if len(before) != 72 || len(after) != 73 || after[0] != 0xEE || after[72] != 0x11 {
		t.Fatalf("ReadFile copy aliases the file: before %d bytes, after %d bytes, after[0]=%#x", len(before), len(after), after[0])
	}

	// The capacity holds the longer file's 0xEE bytes beyond a shorter length.
	n.data = n.data[:4]
	holeAt("shrunk in place", 4, 40)

	c.mustOK(&Fcall{Type: Tclunk, Fid: 1})
	c.mustOK(&Fcall{Type: Twalk, Fid: 0, NewFid: 1, Names: []string{"f"}})
	c.mustOK(&Fcall{Type: Topen, Fid: 1, Mode: OWRITE | OTRUNC})
	holeAt("after O_TRUNC", 0, 32)

	if err := fs.WriteFile("/f", []byte("new")); err != nil {
		t.Fatal(err)
	}
	holeAt("after host replace", 3, 50)
}

func TestServerRemove(t *testing.T) {
	fs := NewExportFS()
	if err := fs.WriteFile("/dir/victim", []byte("x")); err != nil {
		t.Fatal(err)
	}
	c := &client{t: t, s: NewServer(fs)}
	c.mustOK(&Fcall{Type: Tattach, Fid: 0, AFid: NoFid})
	c.mustOK(&Fcall{Type: Twalk, Fid: 0, NewFid: 1, Names: []string{"dir", "victim"}})
	c.mustOK(&Fcall{Type: Tremove, Fid: 1})
	if _, err := fs.ReadFile("/dir/victim"); err == nil {
		t.Fatal("file survives Tremove")
	}
	if c.s.Fids() != 1 {
		t.Fatalf("fids = %d after remove (remove clunks)", c.s.Fids())
	}
}

func TestServerDirectoryRead(t *testing.T) {
	fs := NewExportFS()
	for _, f := range []string{"/www/b.html", "/www/a.html"} {
		if err := fs.WriteFile(f, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	c := &client{t: t, s: NewServer(fs)}
	c.mustOK(&Fcall{Type: Tattach, Fid: 0, AFid: NoFid})
	c.mustOK(&Fcall{Type: Twalk, Fid: 0, NewFid: 1, Names: []string{"www"}})
	c.mustOK(&Fcall{Type: Topen, Fid: 1, Mode: OREAD})
	r := c.mustOK(&Fcall{Type: Tread, Fid: 1, Offset: 0, Count: 4096})
	if string(r.Data) != "a.html\nb.html\n" {
		t.Fatalf("dir read = %q", r.Data)
	}
}

func TestPartialWalkReturnsPrefix(t *testing.T) {
	fs := NewExportFS()
	if err := fs.MkdirAll("/a/b"); err != nil {
		t.Fatal(err)
	}
	c := &client{t: t, s: NewServer(fs)}
	c.mustOK(&Fcall{Type: Tattach, Fid: 0, AFid: NoFid})
	r := c.rpc(&Fcall{Type: Twalk, Fid: 0, NewFid: 1, Names: []string{"a", "ghost", "x"}})
	if r.Type != Rwalk || len(r.Qids) != 1 {
		t.Fatalf("partial walk = %v qids=%v", r.Type, r.Qids)
	}
	// newfid must not have been installed on partial walk.
	if rr := c.rpc(&Fcall{Type: Tclunk, Fid: 1}); rr.Type != Rerror {
		t.Fatal("newfid installed despite partial walk")
	}
}
