package unikernel

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"vampos/internal/core"
	"vampos/internal/ninep"
)

// shardConfig is the DaS configuration with n shard batons.
func shardConfig(n int) Config {
	cc := core.DaSConfig()
	cc.Shards = n
	return fullConfig(cc)
}

// runShardOps drives three independent application domains, each pinned
// to its own shard ordinal, interpreting an interleaved slice of the ops
// string as file-system work. The completion counter is mutated only
// through Thread.Do so it commits on the conductor in merge order —
// the required pattern for any state shared across app domains.
func runShardOps(t *testing.T, s *Sys, ops []byte, midReboot bool) {
	t.Helper()
	const domains = 3
	done := 0
	for d := 0; d < domains; d++ {
		d := d
		s.GoShard(fmt.Sprintf("eqdom%d", d), 10+d, func(cs *Sys) {
			defer cs.Ctx().Thread().Do(func() { done++ })
			var fds []int
			seq := 0
			for i := d; i < len(ops); i += domains {
				b := ops[i]
				switch b % 5 {
				case 0:
					fd, err := cs.Create(fmt.Sprintf("/eq%d-%03d.dat", d, seq))
					if err != nil {
						t.Errorf("domain %d op %d: create: %v", d, i, err)
						return
					}
					seq++
					fds = append(fds, fd)
				case 1, 2:
					if len(fds) > 0 {
						fd := fds[int(b>>3)%len(fds)]
						if _, err := cs.Write(fd, []byte{'v', b}); err != nil {
							t.Errorf("domain %d op %d: write: %v", d, i, err)
							return
						}
					}
				case 3:
					if len(fds) > 0 {
						fd := fds[int(b>>3)%len(fds)]
						if _, err := cs.Pread(fd, 2, 0); err != nil {
							t.Errorf("domain %d op %d: pread: %v", d, i, err)
							return
						}
					}
				case 4:
					if len(fds) > 0 {
						fd := fds[int(b>>3)%len(fds)]
						if err := cs.Close(fd); err != nil {
							t.Errorf("domain %d op %d: close: %v", d, i, err)
							return
						}
						keep := fds[:0]
						for _, v := range fds {
							if v != fd {
								keep = append(keep, v)
							}
						}
						fds = keep
					}
				}
			}
			for _, fd := range fds {
				_ = cs.Close(fd)
			}
		})
	}
	if midReboot {
		// Reboot a stateful component while the domains are mid-workload.
		// The trigger is a fixed virtual-time point, so it lands at the
		// same place in the canonical order at every shard count.
		s.Sleep(2 * time.Millisecond)
		if err := s.Reboot("vfs"); err != nil {
			t.Errorf("mid-workload reboot: %v", err)
		}
	}
	for done < domains {
		s.Sleep(time.Millisecond)
	}
}

// instanceFingerprint serializes everything the determinism contract
// promises: every component's retained log record stream, its stats,
// the scheduler's deterministic counters, the virtual clock, and the
// final host export shadow. Wall-clock measurements (SliceWall,
// RoundCritical) are deliberately excluded — they are the only fields
// allowed to differ between byte-identical runs.
func instanceFingerprint(t *testing.T, inst *Instance) []byte {
	t.Helper()
	var b bytes.Buffer
	rt := inst.Runtime()
	for _, name := range rt.Components() {
		fmt.Fprintf(&b, "component %s\n", name)
		views, err := rt.LogRecords(name)
		if err != nil {
			fmt.Fprintf(&b, "  logerr %v\n", err)
		}
		for _, v := range views {
			fmt.Fprintf(&b, "  rec seq=%d fn=%s session=%s class=%v err=%q synth=%v args=%v rets=%v",
				v.Seq, v.Fn, v.Session, v.Class, v.Err, v.Synthetic, v.Args, v.Rets)
			for _, o := range v.Outbound {
				fmt.Fprintf(&b, " out=%s.%s/%q/%v", o.Target, o.Fn, o.Err, o.Rets)
			}
			b.WriteByte('\n')
		}
		if cs, ok := rt.ComponentStats(name); ok {
			fmt.Fprintf(&b, "  stats %+v\n", cs)
		}
	}
	fmt.Fprintf(&b, "runtime %+v\n", rt.Stats())
	st := rt.SchedStats()
	fmt.Fprintf(&b, "sched dispatches=%d advances=%d spawned=%d killed=%d rounds=%d slices=%d penflushes=%d penned=%d\n",
		st.Dispatches, st.ClockAdvances, st.Spawned, st.Killed, st.Rounds, st.Slices, st.PenFlushes, st.Penned)
	walkExport(&b, inst, "/")
	return b.Bytes()
}

// walkExport appends the host export's full tree (paths and contents) —
// the "final host shadow" leg of the equivalence property. It reads the
// export as the guest's 9PFS does, over a 9P session of its own, so the
// live session's fids are untouched.
func walkExport(b *bytes.Buffer, inst *Instance, path string) {
	srv := ninep.NewServer(inst.Host().FS())
	rpc := func(f *ninep.Fcall) *ninep.Fcall {
		r, err := srv.Handle(f)
		if err != nil {
			panic(err)
		}
		return r
	}
	rpc(&ninep.Fcall{Type: ninep.Tattach, Fid: 0, AFid: ninep.NoFid})
	var walk func(path string)
	walk = func(path string) {
		names := strings.FieldsFunc(path, func(r rune) bool { return r == '/' })
		if r := rpc(&ninep.Fcall{Type: ninep.Twalk, Fid: 0, NewFid: 1, Names: names}); r.Type == ninep.Rerror || len(r.Qids) != len(names) {
			fmt.Fprintf(b, "shadow %s unreadable: %s\n", path, r.Ename)
			return
		}
		st := rpc(&ninep.Fcall{Type: ninep.Tstat, Fid: 1}).Stat
		rpc(&ninep.Fcall{Type: ninep.Topen, Fid: 1, Mode: ninep.OREAD})
		var data []byte
		for {
			r := rpc(&ninep.Fcall{Type: ninep.Tread, Fid: 1, Offset: uint64(len(data)), Count: 1 << 16})
			if len(r.Data) == 0 {
				break
			}
			data = append(data, r.Data...)
		}
		rpc(&ninep.Fcall{Type: ninep.Tclunk, Fid: 1})
		if st.Mode&ninep.DMDIR == 0 {
			fmt.Fprintf(b, "shadow %s %d %x\n", path, len(data), data)
			return
		}
		fmt.Fprintf(b, "shadowdir %s\n", path)
		for _, n := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
			if n == "" {
				continue
			}
			child := path + "/" + n
			if path == "/" {
				child = "/" + n
			}
			walk(child)
		}
	}
	walk(path)
}

// runShardFingerprint runs the ops workload at the given shard count and
// returns the instance fingerprint.
func runShardFingerprint(t *testing.T, shards int, ops []byte, midReboot bool) []byte {
	inst := runInstance(t, shardConfig(shards), func(s *Sys) {
		runShardOps(t, s, ops, midReboot)
	})
	return instanceFingerprint(t, inst)
}

// TestShardCountEquivalenceProperty: for any operation sequence, the
// retained log streams, component stats, scheduler counters, virtual
// clock, and final host shadow are byte-identical whether the instance
// ran with 1, 2, or 4 shard batons. This is the tentpole determinism
// claim: shards choose which runner executes a slice, never what the
// slice does or when its effects commit.
func TestShardCountEquivalenceProperty(t *testing.T) {
	prop := func(ops []byte) bool {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		ref := runShardFingerprint(t, 1, ops, false)
		for _, n := range []int{2, 4} {
			got := runShardFingerprint(t, n, ops, false)
			if !bytes.Equal(ref, got) {
				t.Logf("ops %v: fingerprint diverged between 1 and %d shards:\n1 shard:\n%s\n%d shards:\n%s",
					ops, n, ref, n, got)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 8,
		Rand:     rand.New(rand.NewSource(11)), // fixed seed: deterministic CI
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestShardCountEquivalenceAcrossReboot re-checks the property with a
// component reboot landing mid-workload: recovery (kill, log replay,
// pending-call retry) must follow the same canonical order at every
// shard count.
func TestShardCountEquivalenceAcrossReboot(t *testing.T) {
	ops := []byte{0, 5, 11, 0, 7, 23, 4, 0, 9, 14, 3, 20, 0, 1, 2, 8, 16, 31, 42, 6}
	ref := runShardFingerprint(t, 1, ops, true)
	if !bytes.Contains(ref, []byte("runtime ")) {
		t.Fatal("fingerprint missing runtime stats section")
	}
	for _, n := range []int{2, 4} {
		got := runShardFingerprint(t, n, ops, true)
		if !bytes.Equal(ref, got) {
			t.Fatalf("fingerprint diverged between 1 and %d shards after mid-workload reboot:\n1 shard:\n%s\n%d shards:\n%s",
				n, ref, n, got)
		}
	}
}
