// Package host models everything outside the unikernel: the hypervisor's
// virtio-9p backend over an in-memory export file system, the virtual
// ethernet switch, and the TCP peers that workload clients run on.
//
// Host services are simulated threads on the same cooperative scheduler
// as the guest, so the whole experiment is one deterministic simulation;
// their I/O costs are charged in virtual time through fixed latencies
// (the substitution for the paper's real storage and gigabit link).
package host

import (
	"fmt"
	"slices"
	"time"

	"vampos/internal/clock"
	"vampos/internal/lwip"
	"vampos/internal/ninep"
	"vampos/internal/sched"
	"vampos/internal/trace"
	"vampos/internal/virtio"
)

// GuestIP is the unikernel's address on the virtual network.
var GuestIP = lwip.IP4(10, 0, 0, 2)

// Virtual-time costs of host-side operations, mirroring a local
// NVMe-backed host share and an intra-host virtio link.
const (
	WireLatency    = 10 * time.Microsecond  // one frame across the virtual ethernet
	P9OpLatency    = 8 * time.Microsecond   // one 9P operation (page-cache-hit cost)
	P9FsyncLatency = 250 * time.Microsecond // one fsync (synchronous storage flush)
)

// Host is the hypervisor-side world attached to one simulation.
type Host struct {
	sch *sched.Scheduler
	clk *clock.Virtual

	fs    *ninep.ExportFS
	p9srv *ninep.Server

	netDev *virtio.Device
	p9Dev  *virtio.Device

	peers    map[lwip.Addr]*Peer
	nextPeer byte

	p9Thread     *sched.Thread
	switchThread *sched.Thread
	stopped      bool

	// tracer is the optional flight recorder shared with the guest
	// runtime; nil when tracing is off.
	tracer *trace.Recorder

	// corrupt9P counts pending 9P response corruptions: the defense
	// campaign's host-boundary attack. While armed, each response frame
	// has its opcode byte flipped before transmission — a guaranteed
	// wire-level ProtoError on the guest side.
	corrupt9P int

	// frame is the buffer sendToGuest encodes a segment into; the ring
	// copies it on push.
	frame []byte

	// Stats
	FramesSwitched uint64
	FramesDropped  uint64
	// ResponsesCorrupted counts 9P responses deliberately corrupted by an
	// armed Corrupt9PResponses hook.
	ResponsesCorrupted uint64
}

// Corrupt9PResponses arms corruption of the next n 9P responses before
// they cross to the guest: the attack-shaped fault of the defense
// campaign. Call from a simulated thread (the cooperative scheduler makes
// the counter race-free).
func (h *Host) Corrupt9PResponses(n int) { h.corrupt9P += n }

// SetTracer attaches a flight recorder to the host services. Host-side
// events (9P requests served, frames dropped) appear as instants.
func (h *Host) SetTracer(r *trace.Recorder) { h.tracer = r }

// New creates a host over the simulation scheduler. The export file
// system persists for the host's lifetime, surviving guest reboots.
func New(sch *sched.Scheduler) *Host {
	fs := ninep.NewExportFS()
	return &Host{
		sch:   sch,
		clk:   sch.Clock(),
		fs:    fs,
		p9srv: ninep.NewServer(fs),
		peers: make(map[lwip.Addr]*Peer),
	}
}

// FS returns the export file system (workload setup, durability checks).
func (h *Host) FS() *ninep.ExportFS { return h.fs }

// Server exposes the 9P server (fid-leak observation in tests).
func (h *Host) Server() *ninep.Server { return h.p9srv }

// AttachNet implements virtio.Ports.
func (h *Host) AttachNet(dev *virtio.Device) {
	h.netDev = dev
	dev.HostNotify = func() {
		if h.switchThread != nil {
			h.switchThread.Wake()
		}
	}
}

// Attach9P implements virtio.Ports. Re-attachment (a full VM reboot)
// starts a fresh 9P session: the server's fid table resets while the
// export itself — the durable host storage — survives.
func (h *Host) Attach9P(dev *virtio.Device) {
	h.p9Dev = dev
	h.p9srv = ninep.NewServer(h.fs)
	dev.HostNotify = func() {
		if h.p9Thread != nil {
			h.p9Thread.Wake()
		}
	}
}

// Start spawns the host service threads. Call once, before the guest
// starts issuing I/O (device attachment may happen later — the threads
// idle until devices appear).
func (h *Host) Start() {
	h.p9Thread = h.sch.Spawn("host/9p", 0, h.p9Loop)
	h.switchThread = h.sch.Spawn("host/switch", 0, h.switchLoop)
}

// Stop parks the host threads permanently.
func (h *Host) Stop() {
	h.stopped = true
	if h.p9Thread != nil {
		h.p9Thread.Wake()
	}
	if h.switchThread != nil {
		h.switchThread.Wake()
	}
}

// p9Loop serves 9P requests from the virtio-9p ring, charging the
// configured storage latencies.
func (h *Host) p9Loop(t *sched.Thread) {
	for !h.stopped {
		if h.p9Dev == nil {
			t.Block("no 9p device")
			continue
		}
		req, ok, err := h.p9Dev.HostRecv()
		if err != nil || !ok {
			t.Block("9p idle")
			continue
		}
		var resp *ninep.Fcall
		tmsg, err := ninep.Decode(req)
		if err != nil {
			// Undecodable request: the transport is byte-accurate, so
			// this means guest-side corruption. Answer with Rerror.
			resp = &ninep.Fcall{Type: ninep.Rerror, Ename: "EIO: " + err.Error()}
		} else {
			cost := P9OpLatency
			if tmsg.Type == ninep.Tfsync {
				cost = P9FsyncLatency
			}
			t.Sleep(cost)
			resp, err = h.p9srv.Handle(tmsg)
			if err != nil {
				resp = &ninep.Fcall{Type: ninep.Rerror, Tag: tmsg.Tag, Ename: "EIO: " + err.Error()}
			}
			if tr := h.tracer; tr != nil {
				detail := ""
				if resp != nil && resp.Type == ninep.Rerror {
					detail = resp.Ename
				}
				tr.Instant(0, trace.KindHostIO, "host/9p", tmsg.Type.String(), detail)
			}
		}
		out, err := ninep.Encode(resp)
		if err != nil {
			panic(fmt.Sprintf("host: encode own response: %v", err))
		}
		if h.corrupt9P > 0 {
			// Flip the high bit of the opcode: every R type lands on an
			// opcode the guest decoder does not know, so the corruption is
			// detected at the boundary rather than mis-executed.
			h.corrupt9P--
			out[4] ^= 0x80
			h.ResponsesCorrupted++
			if tr := h.tracer; tr != nil {
				tr.Instant(0, trace.KindHostIO, "host/9p", "corrupt-response", "opcode bit flipped")
			}
		}
		if err := h.p9Dev.HostSend(out); err != nil {
			// Desynced device: drop, as real hardware would.
			continue
		}
	}
}

// wireSleep charges one frame's time on the virtual wire. The legacy
// scheduler sleeps the relative Wire latency. Under the sharded batons
// the wake is instead rounded up to the next absolute Wire-latency grid
// point — interrupt coalescing, as virtio-net rx batching does — so
// frames in flight together arrive together: the guest drains them as
// one rx batch and the application domains they unblock become ready at
// the same virtual instant, forming one wide parallel round. The grid
// is a pure function of virtual time, so determinism is unaffected.
func (h *Host) wireSleep(t *sched.Thread) {
	if t == nil {
		return
	}
	if h.sch.Shards() > 0 {
		t.Sleep(WireLatency - h.clk.Elapsed()%WireLatency)
		return
	}
	t.Sleep(WireLatency)
}

// switchLoop moves guest TX frames to the addressed peer connection.
// Under the sharded batons the switch is store-and-forward with frame
// batching: every frame already in the TX ring crosses the wire behind
// one shared wireSleep, so replies generated in the same parallel round
// reach their peers at the same virtual instant and the peers' next
// requests stay in phase. The legacy single baton keeps the original
// one-frame-per-Wire pipeline so the seed figures do not move.
func (h *Host) switchLoop(t *sched.Thread) {
	var batch [][]byte
	for !h.stopped {
		if h.netDev == nil {
			t.Block("no net device")
			continue
		}
		batch = batch[:0]
		for len(batch) == 0 || h.sch.Shards() > 0 {
			// Pop into the array an earlier batch left at this slot.
			batch = slices.Grow(batch, 1)
			f, ok, err := h.netDev.HostRecvInto(batch[:len(batch)+1][len(batch)])
			if err != nil || !ok {
				break
			}
			batch = append(batch, f)
		}
		if len(batch) == 0 {
			t.Block("switch idle")
			continue
		}
		h.wireSleep(t)
		for _, frame := range batch {
			h.forwardFrame(frame)
		}
	}
}

// forwardFrame demuxes one guest TX frame to its destination peer.
func (h *Host) forwardFrame(frame []byte) {
	seg, err := lwip.DecodeSegment(frame)
	if err != nil {
		h.FramesDropped++
		if tr := h.tracer; tr != nil {
			tr.Instant(0, trace.KindHostIO, "host/switch", "frame-drop", "undecodable frame")
		}
		return
	}
	peer, ok := h.peers[seg.Dst]
	if !ok {
		h.FramesDropped++
		if tr := h.tracer; tr != nil {
			tr.Instant(0, trace.KindHostIO, "host/switch", "frame-drop", "no peer for destination")
		}
		return
	}
	h.FramesSwitched++
	peer.deliver(seg)
}

// sendToGuest pushes a peer-originated segment into the guest RX ring.
// It runs on whichever simulated thread triggered the transmission (a
// workload thread sending, or the switch thread delivering an ACK). Each
// try encodes the segment into h.frame afresh: while this thread sleeps
// on a full ring, another host thread may send through the same buffer.
func (h *Host) sendToGuest(seg lwip.Segment) error {
	if h.netDev == nil {
		return fmt.Errorf("host: no net device attached")
	}
	t := h.sch.Current()
	h.wireSleep(t)
	for {
		h.frame = lwip.AppendSegment(h.frame[:0], seg)
		err := h.netDev.HostSend(h.frame)
		if err == nil {
			h.FramesSwitched++
			return nil
		}
		if err != virtio.ErrRingFull || t == nil {
			h.FramesDropped++
			return err
		}
		t.Sleep(10 * time.Microsecond)
	}
}
