package unikernel_test

import (
	"testing"
	"time"

	"vampos/internal/apps/echo"
	"vampos/internal/core"
	"vampos/internal/sched"
	"vampos/internal/unikernel"
)

// TestVanillaInjectFiresArmedFault arms an errno on lwip's rx_pump,
// which only ever runs as an injected virtual IRQ, and dials an echo
// server under the vanilla configuration: the injection must consume the
// armed fault as the message path does. The dial itself may time out,
// since one dropped rx_pump can lose the SYN and the peer does not
// retransmit it.
func TestVanillaInjectFiresArmedFault(t *testing.T) {
	app := echo.New()
	cfg := app.Profile(unikernel.Config{Core: core.VanillaConfig()})
	cfg.Core.MaxVirtualTime = time.Hour
	inst, err := unikernel.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	rt := inst.Runtime()
	err = inst.Run(func(s *unikernel.Sys) {
		defer s.Stop()
		if err := s.StartApp(app); err != nil {
			t.Fatalf("start echo: %v", err)
		}
		if err := rt.ArmFault("lwip", "rx_pump", core.FaultErrno); err != nil {
			t.Fatal(err)
		}
		done := false
		peer := s.NewPeer()
		s.GoHost("client", func(th *sched.Thread) {
			defer func() { done = true }()
			if conn, err := peer.Dial(th, echo.DefaultPort, 100*time.Millisecond); err == nil {
				conn.Close(th)
			}
		})
		for !done {
			s.Sleep(time.Millisecond)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.PendingFaults(); len(got) != 0 {
		t.Fatalf("armed fault never fired on the injected call: %v", got)
	}
}
