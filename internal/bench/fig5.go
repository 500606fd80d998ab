package bench

import (
	"bytes"
	"fmt"
	"time"

	"vampos/internal/sched"
	"vampos/internal/unikernel"
)

// Syscall names measured by Fig. 5 / Table III, in paper order.
var Fig5Syscalls = []string{
	"getpid", "open", "write", "read", "close", "socket_read", "socket_write",
}

// Fig5Result holds the per-syscall execution times per configuration.
type Fig5Result struct {
	Trials int
	// Virtual[syscall][config] is the virtual-time cost distribution.
	Virtual map[string]map[ConfigName]Stat
	// Dispatches[syscall][config] is the mean scheduler dispatches per
	// call: the "component transitions" the paper quotes.
	Dispatches map[string]map[ConfigName]float64
}

// RunFig5 measures the seven system calls across all five configurations
// (paper §VII-A).
func RunFig5(scale Scale) (*Fig5Result, error) {
	res := &Fig5Result{
		Trials:     scale.SyscallTrials,
		Virtual:    make(map[string]map[ConfigName]Stat),
		Dispatches: make(map[string]map[ConfigName]float64),
	}
	for _, sc := range Fig5Syscalls {
		res.Virtual[sc] = make(map[ConfigName]Stat)
		res.Dispatches[sc] = make(map[ConfigName]float64)
	}
	for _, cfg := range AllConfigs() {
		err := runInstance(fullProfile(coreConfig(cfg)), nil, func(s *unikernel.Sys, inst *unikernel.Instance) error {
			return fig5Body(s, inst, cfg, scale.SyscallTrials, res)
		})
		if err != nil {
			return nil, fmt.Errorf("fig5 %s: %w", cfg, err)
		}
	}
	return res, nil
}

// syscallSample measures one operation repeatedly.
type syscallSample struct {
	virtual []time.Duration
	disp    []float64
}

func fig5Body(s *unikernel.Sys, inst *unikernel.Instance, cfg ConfigName, trials int, res *Fig5Result) error {
	clk := inst.Runtime().Clock()
	samples := make(map[string]*syscallSample, len(Fig5Syscalls))
	for _, sc := range Fig5Syscalls {
		samples[sc] = &syscallSample{}
	}
	measure := func(name string, op func() error) error {
		sp := samples[name]
		d0 := inst.Runtime().SchedStats().Dispatches
		v0 := clk.Elapsed()
		if err := op(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		sp.virtual = append(sp.virtual, clk.Elapsed()-v0)
		sp.disp = append(sp.disp, float64(inst.Runtime().SchedStats().Dispatches-d0))
		return nil
	}

	// --- file setup: a file with enough bytes to read one per trial.
	prep, err := s.Open("/bench.dat", unikernel.OCreate|unikernel.OWronly)
	if err != nil {
		return err
	}
	if _, err := s.Write(prep, bytes.Repeat([]byte("x"), trials+8)); err != nil {
		return err
	}
	if err := s.Close(prep); err != nil {
		return err
	}

	// --- socket setup: a guest-side sink connection fed by a peer.
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
	const sockMsg = 222 // paper: 222-byte network messages
	var peerConnErr error
	peerReady := false
	drained := 0
	s.GoHost("fig5/peer", func(th *sched.Thread) {
		conn, err := peer.Dial(th, 9000, 2*time.Second)
		if err != nil {
			peerConnErr = err
			peerReady = true
			return
		}
		// Pre-send every socket_read payload so the guest-side read path
		// is measured without wire wait, as the paper's loopback setup
		// effectively does.
		payload := bytes.Repeat([]byte("r"), sockMsg)
		for i := 0; i < trials; i++ {
			if err := conn.Send(th, payload); err != nil {
				peerConnErr = err
				break
			}
		}
		peerReady = true
		// Then drain everything the guest writes.
		for drained < trials*sockMsg {
			data, err := conn.Recv(th, 1<<16, 10*time.Second)
			if err != nil {
				return
			}
			drained += len(data)
		}
	})
	connFD, err := s.Accept(lfd)
	if err != nil {
		return err
	}
	for !peerReady {
		s.Sleep(50 * time.Microsecond)
	}
	if peerConnErr != nil {
		return peerConnErr
	}
	// Let the pre-sent payloads land in the socket buffer.
	s.Sleep(5 * time.Millisecond)

	readFD, err := s.Open("/bench.dat", unikernel.ORdonly)
	if err != nil {
		return err
	}
	writeFD, err := s.Open("/bench.dat", unikernel.OWronly)
	if err != nil {
		return err
	}
	wbuf := []byte("y")
	sockPayload := bytes.Repeat([]byte("w"), sockMsg)

	for i := 0; i < trials; i++ {
		if err := measure("getpid", func() error {
			_, err := s.Getpid()
			return err
		}); err != nil {
			return err
		}
		var fd int
		if err := measure("open", func() error {
			var err error
			fd, err = s.Open("/bench.dat", unikernel.ORdonly)
			return err
		}); err != nil {
			return err
		}
		if err := measure("close", func() error { return s.Close(fd) }); err != nil {
			return err
		}
		if err := measure("write", func() error {
			_, err := s.Write(writeFD, wbuf)
			return err
		}); err != nil {
			return err
		}
		if err := measure("read", func() error {
			_, _, err := s.ReadNB(readFD, 1)
			return err
		}); err != nil {
			return err
		}
		if err := measure("socket_read", func() error {
			_, _, err := s.ReadNB(connFD, sockMsg)
			return err
		}); err != nil {
			return err
		}
		if err := measure("socket_write", func() error {
			_, err := s.Write(connFD, sockPayload)
			return err
		}); err != nil {
			return err
		}
	}
	_ = s.Close(readFD)
	_ = s.Close(writeFD)
	_ = s.Close(connFD)

	for name, sp := range samples {
		res.Virtual[name][cfg] = NewStat(sp.virtual)
		var sum float64
		for _, d := range sp.disp {
			sum += d
		}
		if len(sp.disp) > 0 {
			res.Dispatches[name][cfg] = sum / float64(len(sp.disp))
		}
	}
	return nil
}

// Render produces the Fig. 5 table.
func (r *Fig5Result) Render() string {
	t := &table{
		title:   fmt.Sprintf("Fig. 5 — system call execution time (virtual µs, mean of %d trials)", r.Trials),
		headers: []string{"syscall"},
	}
	for _, cfg := range AllConfigs() {
		t.headers = append(t.headers, string(cfg))
	}
	t.headers = append(t.headers, "das/vanilla")
	for _, scName := range Fig5Syscalls {
		row := []string{scName}
		for _, cfg := range AllConfigs() {
			st := r.Virtual[scName][cfg]
			row = append(row, fmt.Sprintf("%s ±%s", fmtDur(st.Mean), fmtDur(st.StdDev)))
		}
		van := r.Virtual[scName][Vanilla].Mean
		das := r.Virtual[scName][DaS].Mean
		if van > 0 {
			row = append(row, fmt.Sprintf("%.2fx", float64(das)/float64(van)))
		} else {
			row = append(row, "-")
		}
		t.rows = append(t.rows, row)
	}
	t.addNote("mean dispatches per call (component transitions): getpid=%s open=%s socket_write=%s",
		fmtTransitions(r.Dispatches["getpid"]), fmtTransitions(r.Dispatches["open"]), fmtTransitions(r.Dispatches["socket_write"]))
	return t.String()
}

func fmtTransitions(m map[ConfigName]float64) string {
	return fmt.Sprintf("{vanilla:%.0f das:%.0f}", m[Vanilla], m[DaS])
}
