package vfs

import (
	"bytes"
	"testing"

	"vampos/internal/core"
)

// codecComp is a VFS control state with every kind of fd: a file, a
// socket, and both ends of a pipe holding data.
func codecComp() *Comp {
	return &Comp{
		mounts: map[string]string{"/": "9pfs", "/mnt": "9pfs", "/data": "9pfs"},
		fds: map[int]*file{
			3: {FD: 3, Kind: kindFile, Path: "/f", Fid: 7, Offset: 4096, Append: true, CtlBlock: 0x8000},
			4: {FD: 4, Kind: kindSock, Sock: 2, CtlBlock: 0x8100},
			5: {FD: 5, Kind: kindPipeR, Pipe: 1, CtlBlock: 0x8200},
			6: {FD: 6, Kind: kindPipeW, Pipe: 1, CtlBlock: 0x8300},
		},
		pipes:    map[int]*pipeBuf{1: {Data: []byte("queued")}, 2: {ReadersGone: true}},
		nextPipe: 2,
	}
}

// TestSaveStateIsDeterministic: one fd table has one encoding, however
// the Go maps holding it iterate.
func TestSaveStateIsDeterministic(t *testing.T) {
	c := codecComp()
	img, err := c.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if again, _ := c.SaveState(); !bytes.Equal(again, img) {
			t.Fatalf("save %d of an unchanged table differs:\n got %x\nwant %x", i, again, img)
		}
	}
}

func TestSaveRestoreSaveIsIdentity(t *testing.T) {
	img, _ := codecComp().SaveState()
	r := New()
	if err := r.RestoreState(img); err != nil {
		t.Fatal(err)
	}
	if again, _ := r.SaveState(); !bytes.Equal(again, img) {
		t.Fatalf("save after restore differs:\n got %x\nwant %x", again, img)
	}
	if f := r.fds[3]; f.Path != "/f" || f.Offset != 4096 || !f.Append || f.CtlBlock != 0x8000 {
		t.Fatalf("restored file fd = %+v", f)
	}
	if p := r.pipes[1]; string(p.Data) != "queued" || p.ReadersGone || !r.pipes[2].ReadersGone {
		t.Fatalf("restored pipes = %+v, %+v", p, r.pipes[2])
	}
}

// TestRestoreTwiceFromOneImage mutates everything the first restore
// handed out; the second restore from the same image must not see it.
func TestRestoreTwiceFromOneImage(t *testing.T) {
	img, _ := codecComp().SaveState()
	r := New()
	if err := r.RestoreState(img); err != nil {
		t.Fatal(err)
	}
	r.fds[3].Offset = 1
	r.pipes[1].Data[0] = 'X'
	r.pipes[1].Data = append(r.pipes[1].Data, "more"...)
	r.mounts["/tmp"] = "9pfs"
	delete(r.fds, 4)
	r.nextPipe++
	if err := r.RestoreState(img); err != nil {
		t.Fatal(err)
	}
	if again, _ := r.SaveState(); !bytes.Equal(again, img) {
		t.Fatalf("second restore from one image differs:\n got %x\nwant %x", again, img)
	}
}

func TestRestoreRejectsMalformedBlobKeepingState(t *testing.T) {
	img, _ := codecComp().SaveState()
	r := codecComp()
	for _, bad := range [][]byte{img[:len(img)-1], append(append([]byte(nil), img...), 0), {}} {
		if err := r.RestoreState(bad); err == nil {
			t.Fatalf("RestoreState accepted %d malformed bytes", len(bad))
		}
	}
	if again, _ := r.SaveState(); !bytes.Equal(again, img) {
		t.Fatal("a rejected blob changed the live state")
	}
}

// FuzzVFSStateDecode feeds arbitrary bytes to the decoder a VFS reboot
// runs on its checkpoint image: it may reject them but must never panic
// or size an allocation from a count the bytes cannot back.
func FuzzVFSStateDecode(f *testing.F) {
	img, _ := codecComp().SaveState()
	f.Add(img)
	f.Add(img[:len(img)-1])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64)) // huge counts
	// A blob from a running VFS: a file written through, and a pipe.
	var live []byte
	run(f, core.DaSConfig(), func(c *core.Ctx, v *Comp, stub *stub9pfs) {
		fd := callInt(f, c, "open", "/f", OCreate|ORdwr)
		if _, err := c.Call("vfs", "write", fd, []byte("hello")); err != nil {
			f.Error(err)
		}
		if _, err := c.Call("vfs", "pipe"); err != nil {
			f.Error(err)
		}
		live, _ = v.SaveState()
	})
	f.Add(live)
	f.Fuzz(func(t *testing.T, p []byte) {
		r := New()
		if err := r.RestoreState(p); err != nil {
			return
		}
		if 8+4+4+4+len(r.mounts)*8+len(r.fds)*fdLen+len(r.pipes)*pipeLen > len(p) {
			t.Fatalf("accepted %d mounts, %d fds and %d pipes from %d bytes", len(r.mounts), len(r.fds), len(r.pipes), len(p))
		}
	})
}
