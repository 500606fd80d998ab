package bench

import (
	"bytes"
	"fmt"
	"time"

	"vampos/internal/sched"
	"vampos/internal/unikernel"
)

// Table3Result reports log entries added per system call, with and
// without session-aware shrinking (paper Table III).
type Table3Result struct {
	Normal map[string]float64 // shrink disabled
	Shrunk map[string]float64 // shrink enabled, steady state
}

// RunTable3 measures log-space overhead per syscall on the DaS
// configuration, like the paper.
func RunTable3(scale Scale) (*Table3Result, error) {
	res := &Table3Result{
		Normal: make(map[string]float64),
		Shrunk: make(map[string]float64),
	}
	if err := runTable3Pass(scale, false, res.Normal); err != nil {
		return nil, err
	}
	if err := runTable3Pass(scale, true, res.Shrunk); err != nil {
		return nil, err
	}
	return res, nil
}

func runTable3Pass(scale Scale, shrink bool, out map[string]float64) error {
	cc := coreConfig(DaS)
	cc.LogShrinkEnabled = shrink
	cc.LogShrinkThreshold = 1 << 20 // keep compaction out of the measurement
	return runInstance(fullProfile(cc), nil, func(s *unikernel.Sys, inst *unikernel.Instance) error {
		return table3Body(s, inst, scale, shrink, out)
	})
}

// logTotal sums retained log entries across all stateful components.
func logTotal(inst *unikernel.Instance) int {
	total := 0
	for _, name := range []string{"vfs", "9pfs", "lwip"} {
		cs, _ := inst.Runtime().ComponentStats(name)
		total += cs.LogLen
	}
	return total
}

func table3Body(s *unikernel.Sys, inst *unikernel.Instance, scale Scale, shrink bool, out map[string]float64) error {
	const sockMsg = 222
	iters := scale.SyscallTrials
	if iters > 30 {
		iters = 30
	}

	deltas := make(map[string][]int)
	record := func(name string, op func() error) error {
		before := logTotal(inst)
		if err := op(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		deltas[name] = append(deltas[name], logTotal(inst)-before)
		return nil
	}

	// --- file part: open / write / read / close cycles with fd reuse.
	if fd, err := s.Create("/t3.dat"); err != nil {
		return err
	} else if _, err := s.Write(fd, bytes.Repeat([]byte("z"), iters+8)); err != nil {
		return err
	} else if err := s.Close(fd); err != nil {
		return err
	}
	readFD, err := s.Open("/t3.dat", unikernel.ORdonly)
	if err != nil {
		return err
	}
	for i := 0; i < iters; i++ {
		if err := record("getpid", func() error {
			_, err := s.Getpid()
			return err
		}); err != nil {
			return err
		}
		var fd int
		if err := record("open", func() error {
			var err error
			fd, err = s.Open("/t3.dat", unikernel.OWronly)
			return err
		}); err != nil {
			return err
		}
		if err := record("write", func() error {
			_, err := s.Write(fd, []byte("b"))
			return err
		}); err != nil {
			return err
		}
		if err := record("read", func() error {
			_, _, err := s.ReadNB(readFD, 1)
			return err
		}); err != nil {
			return err
		}
		if err := record("close", func() error { return s.Close(fd) }); err != nil {
			return err
		}
	}

	// --- socket part: one full connection life cycle per iteration, so
	// the close-time pruning the paper's Table III reflects can happen.
	lfd, err := s.Socket()
	if err != nil {
		return err
	}
	if err := s.Bind(lfd, 9000); err != nil {
		return err
	}
	if err := s.Listen(lfd, 4); err != nil {
		return err
	}
	peer := s.NewPeer()
	var peerErr error
	peerDone := false
	s.GoHost("t3/peer", func(th *sched.Thread) {
		defer func() { peerDone = true }()
		payload := bytes.Repeat([]byte("r"), sockMsg)
		for i := 0; i < iters; i++ {
			conn, err := peer.Dial(th, 9000, 2*time.Second)
			if err != nil {
				peerErr = err
				return
			}
			if err := conn.Send(th, payload); err != nil {
				peerErr = err
				return
			}
			if _, err := conn.RecvExactly(th, sockMsg, 2*time.Second); err != nil {
				peerErr = err
				return
			}
			conn.Close(th)
		}
	})
	sockPayload := bytes.Repeat([]byte("w"), sockMsg)
	var cycleNets []int
	for i := 0; i < iters; i++ {
		cycleStart := logTotal(inst)
		connFD, err := s.Accept(lfd)
		if err != nil {
			return err
		}
		if err := record("socket_read", func() error {
			_, _, err := s.Read(connFD, sockMsg)
			return err
		}); err != nil {
			return err
		}
		if err := record("socket_write", func() error {
			_, err := s.Write(connFD, sockPayload)
			return err
		}); err != nil {
			return err
		}
		if err := s.Close(connFD); err != nil {
			return err
		}
		// Let the peer finish teardown so pruning settles.
		s.Sleep(time.Millisecond)
		cycleNets = append(cycleNets, logTotal(inst)-cycleStart)
	}
	for !peerDone {
		s.Sleep(time.Millisecond)
	}
	if peerErr != nil {
		return peerErr
	}

	// Steady state: skip the first iteration (no fd reuse yet).
	avg := func(ds []int) float64 {
		if len(ds) > 1 {
			ds = ds[1:]
		}
		sum := 0
		for _, d := range ds {
			sum += d
		}
		return float64(sum) / float64(len(ds))
	}
	for name, ds := range deltas {
		out[name] = avg(ds)
	}
	if shrink {
		// With shrinking, the paper accounts the socket rows after the
		// connection's canceling function ran: the per-cycle net (which
		// is ~0 in steady state) split across the two data calls.
		net := avg(cycleNets)
		out["socket_read"] = net / 2
		out["socket_write"] = net / 2
	}
	return nil
}

// Render produces the Table III table.
func (r *Table3Result) Render() string {
	t := &table{
		title:   "Table III — log entries added per system call (steady state)",
		headers: []string{"syscall", "normal entries", "shrunk entries"},
	}
	for _, sc := range Fig5Syscalls {
		t.addRow(sc, fmt.Sprintf("%.1f", r.Normal[sc]), fmt.Sprintf("%.1f", r.Shrunk[sc]))
	}
	t.addNote("negative shrunk values mean the call also pruned a stale closed session (fd/fid reuse)")
	t.addNote("shrunk socket rows are the per-connection net after close() pruning, as in the paper")
	return t.String()
}
