package echo

import (
	"bytes"
	"testing"
	"time"

	"vampos/internal/core"
	"vampos/internal/lwip"
	"vampos/internal/unikernel"
)

func withEcho(t *testing.T, coreCfg core.Config, fn func(s *unikernel.Sys, a *App)) {
	t.Helper()
	coreCfg.MaxVirtualTime = time.Hour
	app := New()
	inst, err := unikernel.New(app.Profile(unikernel.Config{Core: coreCfg}))
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(func(s *unikernel.Sys) {
		if err := s.StartApp(app); err != nil {
			t.Errorf("start: %v", err)
			s.Stop()
			return
		}
		fn(s, app)
		s.Stop()
	}); err != nil {
		t.Fatal(err)
	}
}

func TestEchoRoundTrip(t *testing.T) {
	withEcho(t, core.DaSConfig(), func(s *unikernel.Sys, a *App) {
		th := s.Ctx().Thread()
		conn, err := s.NewPeer().Dial(th, DefaultPort, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		// The paper's Echo workload sends a 159-byte message.
		payload := bytes.Repeat([]byte("e"), 159)
		for i := 0; i < 10; i++ {
			if err := conn.Send(th, payload); err != nil {
				t.Fatal(err)
			}
			got, err := conn.RecvExactly(th, len(payload), time.Second)
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("round %d: %q, %v", i, got, err)
			}
		}
		conn.Close(th)
		if a.BytesEchoed != 10*159 {
			t.Fatalf("BytesEchoed = %d", a.BytesEchoed)
		}
		if a.Connections != 1 {
			t.Fatalf("Connections = %d", a.Connections)
		}
	})
}

func TestEchoProfileHasNoFS(t *testing.T) {
	app := New()
	cfg := app.Profile(unikernel.Config{Core: core.DaSConfig()})
	if cfg.FS || cfg.Sysinfo {
		t.Fatalf("echo profile = FS:%v Sysinfo:%v, want neither", cfg.FS, cfg.Sysinfo)
	}
	cfg.Core.MaxVirtualTime = time.Hour
	inst, err := unikernel.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(func(s *unikernel.Sys) {
		defer s.Stop()
		if err := s.StartApp(app); err != nil {
			t.Errorf("start without FS: %v", err)
			return
		}
		comps := inst.Runtime().Components()
		for _, c := range comps {
			if c == "9pfs" || c == "sysinfo" {
				t.Errorf("unexpected component %q linked", c)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestEchoSurvivesLWIPRejuvenation(t *testing.T) {
	withEcho(t, core.DaSConfig(), func(s *unikernel.Sys, a *App) {
		th := s.Ctx().Thread()
		conn, err := s.NewPeer().Dial(th, DefaultPort, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := conn.Send(th, []byte("abc")); err != nil {
				t.Fatal(err)
			}
			if _, err := conn.RecvExactly(th, 3, time.Second); err != nil {
				t.Fatalf("round %d: %v", i, err)
			}
			if err := s.Reboot("lwip"); err != nil {
				t.Fatalf("reboot %d: %v", i, err)
			}
		}
		if st := conn.State(); st != lwip.StateEstablished {
			t.Fatalf("connection is %v across LWIP rejuvenations, want established (not reset)", st)
		}
		conn.Close(th)
	})
}
