package unikernel

import (
	"fmt"
	"strings"
	"testing"

	"vampos/internal/core"
	"vampos/internal/trace"
)

// The scheduler charges the virtio driver's empty 9P polls without
// running them (sched.Thread.SleepPoll). A recorder built WithDispatches
// observes every dispatch and so forces every poll to run: the same
// workload with and without one must not differ in anything virtual.

// runPollLeap runs work on a fresh instance and returns everything virtual
// about the run — instanceFingerprint (log streams, component and runtime
// stats, scheduler counters, host shadow) plus the clock, the host's 9P
// request count and work's own notes — and how many dispatches were leapt.
func runPollLeap(t *testing.T, cc core.Config, observe bool, work func(*Sys, *Instance) []string) (view string, dispatches, leaped uint64) {
	t.Helper()
	inst, err := New(fullConfig(cc))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if observe {
		inst.NewTracer("observer", trace.WithDispatches())
	}
	var notes []string
	if err := inst.Run(func(s *Sys) {
		notes = work(s, inst)
		s.Stop()
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := inst.Runtime().SchedStats()
	view = fmt.Sprintf("%selapsed %v\nhandled %d\nnotes %q\n", instanceFingerprint(t, inst),
		inst.Runtime().Clock().Elapsed(), inst.Host().Server().Handled, notes)
	return view, st.Dispatches, st.Leaped
}

// pollLeapConfigs are the dispatch paths a 9P RPC takes: on the caller's
// own thread, and on the driver's worker without and with the round engine.
func pollLeapConfigs() map[string]core.Config {
	sharded := core.DaSConfig()
	sharded.Shards = 2
	return map[string]core.Config{"vanilla": core.VanillaConfig(), "das": core.DaSConfig(), "das-shards2": sharded}
}

func TestPollLeapIsInvisibleToAnFSWriteWorkload(t *testing.T) {
	work := func(s *Sys, _ *Instance) []string {
		var notes []string
		for i := 0; i < 12; i++ {
			fd, err := s.Create(fmt.Sprintf("/leap-%02d.dat", i))
			if err != nil {
				t.Errorf("create %d: %v", i, err)
				return notes
			}
			if _, err := s.Write(fd, []byte(strings.Repeat("x", 100+i))); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
			if err := s.Fsync(fd); err != nil {
				t.Errorf("fsync %d: %v", i, err)
			}
			if err := s.Close(fd); err != nil {
				t.Errorf("close %d: %v", i, err)
			}
			notes = append(notes, fmt.Sprintf("file %d done @%v", i, s.Ctx().Elapsed()))
		}
		return notes
	}
	for name, cc := range pollLeapConfigs() {
		t.Run(name, func(t *testing.T) {
			plain, dispatches, leaped := runPollLeap(t, cc, false, work)
			observed, _, observedLeaped := runPollLeap(t, cc, true, work)
			if plain != observed {
				t.Fatalf("the leap shows:\nleaping:\n%s\nexecuted:\n%s", plain, observed)
			}
			if observedLeaped != 0 {
				t.Fatalf("%d polls leapt under a dispatch observer", observedLeaped)
			}
			// 12 fsyncs of 250 µs on a 2 µs poll: most of the run is waiting.
			if leaped < dispatches/2 {
				t.Fatalf("only %d of %d dispatches leapt", leaped, dispatches)
			}
			t.Logf("%d of %d dispatches charged without running", leaped, dispatches)
		})
	}
}

func TestPollLeapTimesOutAtTheSameInstant(t *testing.T) {
	work := func(s *Sys, inst *Instance) []string {
		fd, err := s.Create("/before.dat")
		if err != nil {
			t.Errorf("create with the host up: %v", err)
			return nil
		}
		inst.Host().Stop()
		_, err = s.Write(fd, []byte("never lands"))
		if err == nil {
			err = s.Fsync(fd)
		}
		if err == nil || !strings.Contains(err.Error(), "EIO: 9p rpc timeout") {
			t.Errorf("I/O against a stopped host: %v, want EIO: 9p rpc timeout", err)
		}
		return []string{fmt.Sprintf("%v @%v", err, s.Ctx().Elapsed())}
	}
	for name, cc := range pollLeapConfigs() {
		t.Run(name, func(t *testing.T) {
			plain, dispatches, leaped := runPollLeap(t, cc, false, work)
			observed, _, _ := runPollLeap(t, cc, true, work)
			if plain != observed {
				t.Fatalf("the leap shows:\nleaping:\n%s\nexecuted:\n%s", plain, observed)
			}
			if leaped == 0 {
				t.Fatal("half a second of empty polls and none leapt")
			}
			t.Logf("%d of %d dispatches leapt", leaped, dispatches)
		})
	}
}
