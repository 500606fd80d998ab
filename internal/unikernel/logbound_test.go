package unikernel

import (
	"fmt"
	"testing"

	"vampos/internal/core"
)

// TestLogsStayBoundedUnderChurn is the end-to-end form of the paper's
// §V-F claim: a long-running workload that opens, uses and closes
// resources must not grow the restoration logs without bound, because
// fd/fid reuse prunes closed sessions and the threshold compactor
// bounds live ones.
func TestLogsStayBoundedUnderChurn(t *testing.T) {
	cfg := fullConfig(core.DaSConfig())
	runInstance(t, cfg, func(s *Sys) {
		for i := 0; i < 300; i++ {
			fd, err := s.Open(fmt.Sprintf("/churn%d.dat", i%3), OCreate|ORdwr)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Write(fd, []byte("x")); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.ReadNB(fd, 1); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(fd); err != nil {
				t.Fatal(err)
			}
		}
		rt := s.Instance().Runtime()
		threshold := core.DefaultLogShrinkThreshold
		for _, comp := range []string{"vfs", "9pfs", "lwip"} {
			if cs, _ := rt.ComponentStats(comp); cs.LogLen > threshold+10 {
				t.Errorf("%s log = %d entries after churn, want bounded near threshold %d",
					comp, cs.LogLen, threshold)
			}
		}
		// And the bounded log still restores correctly.
		if err := s.Reboot("vfs"); err != nil {
			t.Fatal(err)
		}
		if err := s.Reboot("9pfs"); err != nil {
			t.Fatal(err)
		}
		fd, err := s.Open("/churn0.dat", ORdonly)
		if err != nil {
			t.Fatalf("open after reboots: %v", err)
		}
		if err := s.Close(fd); err != nil {
			t.Fatal(err)
		}
	})
}
