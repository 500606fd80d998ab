package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"vampos/internal/clock"
	"vampos/internal/core"
	"vampos/internal/lwip"
	"vampos/internal/mem"
	"vampos/internal/msg"
	"vampos/internal/ninep"
	"vampos/internal/sched"
	"vampos/internal/trace"
	"vampos/internal/unikernel"
	"vampos/internal/virtio"
)

// The T rows: the benchmark times batches of calls of each layer's public
// functions from outside, on the argument shape of the workload being
// measured (its payload size). Each row is the median over layerBatches
// batches and sits in one layer.<metric> span of the benchmark's trace.

const layerBatches = 5

// layers runs the T batches. calls is the total number of calls behind a
// per-call row (10,000 in a real run).
type layers struct {
	calls   int
	payload []byte
	spans   *spanLog
	out     values
	err     error
}

func runLayers(w *workload, calls int, spans *spanLog) (values, error) {
	l := &layers{calls: calls, payload: make([]byte, w.payload), spans: spans, out: make(values)}
	for i := range l.payload {
		l.payload[i] = 'a' + byte(i%26)
	}
	for _, f := range []func(){
		l.schedRows, l.msgCodecRows, l.msgDomainRows, l.msgLogRows, l.memRows,
		l.coreRows, l.ckptRow, l.ninepRows, l.lwipRows, l.virtioRows, l.traceRows,
	} {
		if f(); l.err != nil {
			return nil, l.err
		}
	}
	return l.out, nil
}

// check records the first failure of a layer call: a T batch that errors
// measured nothing.
func (l *layers) check(what string, err error) {
	if err != nil && l.err == nil {
		l.err = fmt.Errorf("layer batch %s: %w", what, err)
	}
}

// batches runs timed layerBatches times inside one layer.<name> span, each
// time after an untimed prep, and returns the median wall time of a batch
// in nanoseconds and the mallocs per batch.
func (l *layers) batches(name string, prep, timed func()) (ns, mallocs float64) {
	sp := l.spans.begin(0, mainLane, "layer."+name)
	defer l.spans.end(sp)
	walls := make([]float64, 0, layerBatches)
	var allocs uint64
	var before, after runtime.MemStats
	for b := 0; b < layerBatches; b++ {
		if prep != nil {
			prep()
		}
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		timed()
		walls = append(walls, float64(time.Since(t0).Nanoseconds()))
		runtime.ReadMemStats(&after)
		allocs += after.Mallocs - before.Mallocs
	}
	sort.Float64s(walls)
	return walls[len(walls)/2], float64(allocs) / layerBatches
}

// perCall times n = calls/layerBatches calls of fn per batch and returns
// nanoseconds and mallocs per call.
func (l *layers) perCall(name string, fn func(i int)) (ns, mallocs float64) {
	n := l.calls/layerBatches + 1
	ns, mallocs = l.batches(name, nil, func() {
		for i := 0; i < n; i++ {
			fn(i)
		}
	})
	return ns / float64(n), mallocs / float64(n)
}

// --- sched ---

// schedBatch times n iterations of a thread exchange on a scheduler of
// its own and returns nanoseconds per iteration. spawn starts the threads.
func (l *layers) schedBatch(name string, spawn func(sch *sched.Scheduler, n int)) float64 {
	n := l.calls/layerBatches + 1
	ns, _ := l.batches(name, nil, func() {
		sch := sched.New(clock.NewVirtual(), sched.NewRoundRobin())
		spawn(sch, n)
		l.check(name, sch.Run())
	})
	return ns / float64(n)
}

func (l *layers) schedRows() {
	// Two threads ping-pong Yield: each iteration is two baton handoffs.
	l.out.set("sched.handoff_ns", l.schedBatch("sched.handoff_ns", func(sch *sched.Scheduler, n int) {
		for _, name := range []string{"a", "b"} {
			sch.Spawn(name, mem.AllowAll, func(t *sched.Thread) {
				for i := 0; i < n; i++ {
					t.Yield()
				}
			})
		}
	})/2)

	// a blocks, b wakes it and yields: one block/wake pair per iteration.
	l.out.set("sched.block_wake_ns", l.schedBatch("sched.block_wake_ns", func(sch *sched.Scheduler, n int) {
		a := sch.Spawn("a", mem.AllowAll, func(t *sched.Thread) {
			for i := 0; i < n; i++ {
				t.Block("benchmark")
			}
		})
		sch.Spawn("b", mem.AllowAll, func(t *sched.Thread) {
			for i := 0; i < n; i++ {
				a.Wake()
				t.Yield()
			}
		})
	}))

	// One thread sleeps: timer arm, clock advance, timer fire, wake.
	l.out.set("sched.sleep_wake_ns", l.schedBatch("sched.sleep_wake_ns", func(sch *sched.Scheduler, n int) {
		sch.Spawn("a", mem.AllowAll, func(t *sched.Thread) {
			for i := 0; i < n; i++ {
				t.Sleep(time.Microsecond)
			}
		})
	}))
}

// --- msg ---

// callArgs is the argument shape of the hot call of every workload:
// write(fd, payload).
func (l *layers) callArgs() msg.Args { return msg.Args{3, l.payload} }

func (l *layers) msgCodecRows() {
	args := l.callArgs()
	encNS, encAllocs := l.perCall("msg.encode_ns", func(int) {
		_, err := msg.EncodeArgs(args)
		l.check("msg.EncodeArgs", err)
	})
	enc, err := msg.EncodeArgs(args)
	l.check("msg.EncodeArgs", err)
	decNS, decAllocs := l.perCall("msg.decode_ns", func(int) {
		_, err := msg.DecodeArgs(enc)
		l.check("msg.DecodeArgs", err)
	})
	l.out.set("msg.encode_ns", encNS)
	l.out.set("msg.decode_ns", decNS)
	l.out.set("msg.codec_allocs", encAllocs+decAllocs)
}

const layerKey = mem.Key(1)

func (l *layers) newDomain() *msg.Domain {
	d, err := msg.NewDomain("benchmark", mem.New(64<<20), layerKey, 4*core.DefaultDomainPages)
	l.check("msg.NewDomain", err)
	return d
}

func (l *layers) msgDomainRows() {
	d := l.newDomain()
	if l.err != nil {
		return
	}
	m := &msg.Message{From: "app", To: "vfs", Fn: "write", Args: l.callArgs()}
	ns, allocs := l.perCall("msg.push_pull_ns", func(i int) {
		m.Seq = uint64(i + 1)
		l.check("Domain.Push", d.Push(m))
		if _, ok := d.Pull(); !ok {
			l.check("Domain.Pull", fmt.Errorf("mailbox empty after push"))
		}
	})
	l.out.set("msg.push_pull_ns", ns)
	l.out.set("msg.push_pull_allocs", allocs)
}

// fillLog appends n completed transient records of one session.
func (l *layers) fillLog(log *msg.Log, from uint64, n int) {
	args, rets := l.callArgs(), msg.Args{len(l.payload)}
	for i := 0; i < n; i++ {
		rec, err := log.BeginInbound(from+uint64(i), "write", args)
		l.check("Log.BeginInbound", err)
		if err == nil {
			l.check("Log.EndInbound", log.EndInbound(rec, "fd:3", msg.ClassTransient, rets, ""))
		}
	}
}

func (l *layers) msgLogRows() {
	d := l.newDomain()
	if l.err != nil {
		return
	}
	log := d.Log()
	// The log is emptied every shrink-threshold records, as the session
	// shrinker and the checkpoint truncation do in a run.
	seq := uint64(1)
	ns, allocs := l.perCall("msg.log_record_ns", func(i int) {
		l.fillLog(log, seq, 1)
		seq++
		if i%core.DefaultLogShrinkThreshold == 0 {
			log.Reset()
		}
	})
	l.out.set("msg.log_record_ns", ns)
	l.out.set("msg.log_record_allocs", allocs)

	// Replay reads the log through Entries; a checkpoint drops it through
	// TruncateBefore. Both on 1,000 retained records.
	const records = 1000
	reps := l.calls/records/layerBatches + 1
	refill := func() {
		log.Reset()
		l.fillLog(log, 1, records)
	}
	refill()
	ns, _ = l.batches("msg.log_entries_us_per_1k", nil, func() {
		for i := 0; i < reps; i++ {
			_, err := log.Entries()
			l.check("Log.Entries", err)
		}
	})
	l.out.set("msg.log_entries_us_per_1k", ns/float64(reps)/1e3)
	ns, _ = l.batches("msg.log_truncate_us_per_1k", refill, func() {
		log.TruncateBefore(records)
	})
	l.out.set("msg.log_truncate_us_per_1k", ns/1e3)
}

// --- mem ---

func (l *layers) memRows() {
	const pages = 256
	const pageSize = 4096
	m := mem.New(64 << 20)
	base, err := m.AllocPages(pages, layerKey)
	l.check("Memory.AllocPages", err)
	if l.err != nil {
		return
	}
	acc := mem.NewAccessor(m, mem.Allow(layerKey))
	buf := make([]byte, 256)
	at := func(i int) mem.Addr { return base + mem.Addr(i%pages)*pageSize }
	ns, _ := l.perCall("mem.write_ns_256b", func(i int) { l.check("Accessor.Write", acc.Write(at(i), buf)) })
	l.out.set("mem.write_ns_256b", ns)
	ns, _ = l.perCall("mem.read_ns_256b", func(i int) { l.check("Accessor.Read", acc.Read(at(i), buf)) })
	l.out.set("mem.read_ns_256b", ns)

	// Every page is resident after the write loop above.
	reps := l.calls/pages/layerBatches + 1
	var snap *mem.Snapshot
	ns, _ = l.batches("mem.snapshot_us_256p", nil, func() {
		for i := 0; i < reps; i++ {
			snap, err = m.Snapshot(base, pages)
			l.check("Memory.Snapshot", err)
		}
	})
	l.out.set("mem.snapshot_us_256p", ns/float64(reps)/1e3)
	if l.err != nil {
		return
	}
	ns, _ = l.batches("mem.snapshot_delta_us_8dirty", nil, func() {
		for i := 0; i < reps; i++ {
			for p := 0; p < 8; p++ {
				l.check("Accessor.Write", acc.Write(at(i*8+p), buf[:1]))
			}
			next, _, err := m.SnapshotDelta(snap)
			l.check("Memory.SnapshotDelta", err)
			if err == nil {
				snap = next
			}
		}
	})
	l.out.set("mem.snapshot_delta_us_8dirty", ns/float64(reps)/1e3)
	ns, _ = l.batches("mem.restore_us_256p", nil, func() {
		for i := 0; i < reps; i++ {
			l.check("Memory.Restore", m.Restore(snap))
		}
	})
	l.out.set("mem.restore_us_256p", ns/float64(reps)/1e3)

	heap, err := mem.NewBuddy(base, pages*pageSize)
	l.check("mem.NewBuddy", err)
	if l.err != nil {
		return
	}
	ns, _ = l.perCall("mem.buddy_alloc_free_ns", func(int) {
		addr, err := heap.Alloc(int64(len(l.payload)))
		l.check("Buddy.Alloc", err)
		if err == nil {
			l.check("Buddy.Free", heap.Free(addr))
		}
	})
	l.out.set("mem.buddy_alloc_free_ns", ns)
}

// --- core, ckpt ---

// inInstance boots an instance and runs body as its controller thread.
func (l *layers) inInstance(cc core.Config, body func(s *unikernel.Sys)) {
	inst, err := unikernel.New(unikernel.Config{Core: cc, FS: true, Net: true, Sysinfo: true})
	l.check("unikernel.New", err)
	if err != nil {
		return
	}
	l.check("Instance.Run", inst.Run(func(s *unikernel.Sys) {
		defer s.Stop()
		body(s)
	}))
}

func (l *layers) coreRows() {
	// getpid is the smallest system call: one full cross-component round
	// trip under DaS (Fig. 5 in wall time), one direct call under vanilla.
	getpid := func(name string, cc core.Config) (ns, allocs float64) {
		l.inInstance(cc, func(s *unikernel.Sys) {
			ns, allocs = l.perCall(name, func(int) {
				_, err := s.Getpid()
				l.check("Sys.Getpid", err)
			})
		})
		return ns, allocs
	}
	ns, allocs := getpid("core.syscall_getpid_ns", dasConfig())
	l.out.set("core.syscall_getpid_ns", ns)
	l.out.set("core.syscall_getpid_allocs", allocs)
	ns, _ = getpid("core.syscall_getpid_vanilla_ns", core.VanillaConfig())
	l.out.set("core.syscall_getpid_vanilla_ns", ns)
}

func (l *layers) ckptRow() {
	// One forced checkpoint of vfs after one more write has dirtied it: the
	// steady-state incremental checkpoint. Only the Checkpoint calls are
	// timed, so the row is their median, not a batch mean.
	n := l.calls/100 + layerBatches
	walls := make([]float64, 0, n)
	sp := l.spans.begin(0, mainLane, "layer.ckpt.checkpoint_wall_us")
	l.inInstance(dasConfig(), func(s *unikernel.Sys) {
		fd, err := s.Open("/ckpt.dat", unikernel.OCreate|unikernel.ORdwr)
		l.check("Sys.Open", err)
		for i := 0; i < n && l.err == nil; i++ {
			_, err := s.Write(fd, l.payload)
			l.check("Sys.Write", err)
			t0 := time.Now()
			err = s.Ctx().Checkpoint("vfs")
			walls = append(walls, float64(time.Since(t0).Nanoseconds()))
			l.check("Ctx.Checkpoint", err)
		}
	})
	l.spans.end(sp)
	l.out.set("ckpt.checkpoint_wall_us", median(walls)/1e3)
}

// --- ninep ---

func (l *layers) ninepRows() {
	tw := &ninep.Fcall{Type: ninep.Twrite, Tag: 1, Fid: 1, Offset: 4096, Data: l.payload}
	ns, allocs := l.perCall("ninep.codec_ns", func(int) {
		frame, err := ninep.Encode(tw)
		l.check("ninep.Encode", err)
		_, err = ninep.Decode(frame)
		l.check("ninep.Decode", err)
	})
	l.out.set("ninep.codec_ns", ns)
	l.out.set("ninep.codec_allocs", allocs)

	// Appends to a small and to a 1 MiB host file: the server reallocates
	// the file on every append that grows it.
	fs := ninep.NewExportFS()
	srv := ninep.NewServer(fs)
	handle := func(t *ninep.Fcall) {
		r, err := srv.Handle(t)
		if err == nil && r.Type == ninep.Rerror {
			err = fmt.Errorf("%s: %s", t.Type, r.Ename)
		}
		l.check("Server.Handle", err)
	}
	handle(&ninep.Fcall{Type: ninep.Tattach, Fid: 0, AFid: ninep.NoFid})
	handle(&ninep.Fcall{Type: ninep.Twalk, Fid: 0, NewFid: 1})
	handle(&ninep.Fcall{Type: ninep.Tcreate, Fid: 1, Name: "f", Mode: ninep.OWRITE})
	const appends = 16
	reps := l.calls/appends/layerBatches + 1
	write := func(name string, size int) float64 {
		ns, _ := l.batches(name, nil, func() {
			for r := 0; r < reps; r++ {
				l.check("ExportFS.WriteFile", fs.WriteFile("/f", make([]byte, size)))
				off := uint64(size)
				for i := 0; i < appends; i++ {
					handle(&ninep.Fcall{Type: ninep.Twrite, Fid: 1, Offset: off, Data: l.payload})
					off += uint64(len(l.payload))
				}
			}
		})
		return ns / float64(reps*appends)
	}
	l.out.set("ninep.server_write_ns_empty", write("ninep.server_write_ns_empty", 0))
	l.out.set("ninep.server_write_ns_1mb", write("ninep.server_write_ns_1mb", 1<<20))
}

// --- lwip ---

func (l *layers) lwipRows() {
	seg := lwip.Segment{
		Src: lwip.IP4(10, 0, 0, 2), Dst: lwip.IP4(10, 0, 0, 1), SrcPort: 40000, DstPort: 7,
		Seq: 1000, Ack: 2000, Flags: lwip.FlagACK | lwip.FlagPSH, Payload: l.payload,
	}
	ns, _ := l.perCall("lwip.segment_codec_ns", func(int) {
		_, err := lwip.DecodeSegment(lwip.EncodeSegment(seg))
		l.check("lwip.DecodeSegment", err)
	})
	l.out.set("lwip.segment_codec_ns", ns)

	// Two machines back to back: what one writes the other is handed.
	var a, b *lwip.Machine
	var toA, toB []lwip.Segment
	pump := func() {
		for len(toA) > 0 || len(toB) > 0 {
			if len(toB) > 0 {
				s := toB[0]
				toB = toB[1:]
				if b == nil {
					var err error
					b, err = lwip.NewPassive(seg.Dst, seg.DstPort, 7000, s, func(s lwip.Segment) { toA = append(toA, s) })
					l.check("lwip.NewPassive", err)
					if err != nil {
						return
					}
				} else {
					b.OnSegment(s)
				}
			}
			if len(toA) > 0 {
				s := toA[0]
				toA = toA[1:]
				a.OnSegment(s)
			}
		}
	}
	a = lwip.NewActive(seg.Src, seg.SrcPort, seg.Dst, seg.DstPort, 3000, func(s lwip.Segment) { toB = append(toB, s) })
	pump()
	if l.err != nil {
		return
	}
	if a.State() != lwip.StateEstablished || b.State() != lwip.StateEstablished {
		l.check("lwip handshake", fmt.Errorf("states %s / %s", a.State(), b.State()))
		return
	}
	n := len(l.payload)
	ns, allocs := l.perCall("lwip.machine_rtt_ns", func(int) {
		l.check("Machine.Send", a.Send(l.payload))
		pump()
		l.check("Machine.Send", b.Send(b.Recv(n)))
		pump()
		if got := a.Recv(n); len(got) != n {
			l.check("Machine.Recv", fmt.Errorf("echoed %d of %d bytes", len(got), n))
		}
	})
	l.out.set("lwip.machine_rtt_ns", ns)
	l.out.set("lwip.machine_rtt_allocs", allocs)
}

// --- virtio ---

func (l *layers) virtioRows() {
	m := mem.New(64 << 20)
	bytes := virtio.RingBytes(virtio.NetSlots, virtio.NetSlot)
	base, err := m.AllocPages((bytes+4095)/4096, layerKey)
	l.check("Memory.AllocPages", err)
	if l.err != nil {
		return
	}
	ring, err := virtio.NewRing(m, base, virtio.NetSlots, virtio.NetSlot)
	l.check("virtio.NewRing", err)
	if l.err != nil {
		return
	}
	acc := mem.NewAccessor(m, mem.Allow(layerKey))
	ns, allocs := l.perCall("virtio.ring_rtt_ns", func(int) {
		l.check("Ring.GuestPush", ring.GuestPush(acc, l.payload))
		_, ok, err := ring.HostPop()
		l.check("Ring.HostPop", err)
		if err == nil && !ok {
			l.check("Ring.HostPop", fmt.Errorf("ring empty after push"))
		}
	})
	l.out.set("virtio.ring_rtt_ns", ns)
	l.out.set("virtio.ring_rtt_allocs", allocs)
}

// --- trace ---

func (l *layers) traceRows() {
	span := func(rec *trace.Recorder) func(int) {
		return func(int) { rec.End(rec.Begin(0, trace.KindCall, "app", "vfs", "write")) }
	}
	ns, _ := l.perCall("trace.begin_end_ns", span(trace.New("benchmark", nil, trace.WithCapacity(1<<12))))
	l.out.set("trace.begin_end_ns", ns)
	ns, _ = l.perCall("trace.begin_end_nil_ns", span(nil))
	l.out.set("trace.begin_end_nil_ns", ns)
}
