package netdev

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"vampos/internal/core"
	"vampos/internal/msg"
)

// stubVirtio is a loopback device driver: frames sent with net_tx come
// back out of net_rx_pop.
type stubVirtio struct {
	queue [][]byte
}

func (s *stubVirtio) Describe() core.Descriptor {
	return core.Descriptor{Name: "virtio", Unrebootable: true, HeapPages: 4, DomainPages: 4}
}

func (s *stubVirtio) Init(*core.Ctx) error { return nil }

func (s *stubVirtio) Exports() map[string]core.Handler {
	return map[string]core.Handler{
		"net_tx": func(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
			frame, err := args.Bytes(0)
			if err != nil {
				return nil, err
			}
			s.queue = append(s.queue, frame)
			return nil, nil
		},
		"net_rx_pop": func(ctx *core.Ctx, args msg.Encoded) (msg.Encoded, error) {
			if len(s.queue) == 0 {
				return nil, core.EAGAIN
			}
			f := s.queue[0]
			s.queue = s.queue[1:]
			return ctx.Ret(f)
		},
	}
}

func run(t *testing.T, main func(c *core.Ctx, nd *Comp, v *stubVirtio)) {
	t.Helper()
	cfg := core.DaSConfig()
	cfg.MaxVirtualTime = time.Hour
	rt := core.NewRuntime(cfg)
	v := &stubVirtio{}
	nd := New()
	if err := rt.Register(v); err != nil {
		t.Fatal(err)
	}
	if err := rt.Register(nd); err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(func(c *core.Ctx) { main(c, nd, v) }); err != nil {
		t.Fatal(err)
	}
}

func TestTxForwardsToDriver(t *testing.T) {
	run(t, func(c *core.Ctx, nd *Comp, v *stubVirtio) {
		frame := []byte("frame-bytes")
		if _, err := c.Call("netdev", "tx", frame); err != nil {
			t.Fatal(err)
		}
		if len(v.queue) != 1 || !bytes.Equal(v.queue[0], frame) {
			t.Fatalf("driver queue = %v", v.queue)
		}
		if nd.TxFrames != 1 || nd.TxBytes != uint64(len(frame)) {
			t.Fatalf("tx stats = %d frames %d bytes", nd.TxFrames, nd.TxBytes)
		}
	})
}

func TestRxPopPullsFromDriver(t *testing.T) {
	run(t, func(c *core.Ctx, nd *Comp, v *stubVirtio) {
		v.queue = append(v.queue, []byte("incoming"))
		rets, err := c.Call("netdev", "rx_pop")
		if err != nil {
			t.Fatal(err)
		}
		got, _ := rets.Bytes(0)
		if string(got) != "incoming" {
			t.Fatalf("rx = %q", got)
		}
		if _, err := c.Call("netdev", "rx_pop"); !errors.Is(err, core.EAGAIN) {
			t.Fatalf("empty rx = %v, want EAGAIN", err)
		}
		if nd.RxFrames != 1 {
			t.Fatalf("RxFrames = %d", nd.RxFrames)
		}
	})
}

func TestRebootResetsCounters(t *testing.T) {
	run(t, func(c *core.Ctx, nd *Comp, v *stubVirtio) {
		if _, err := c.Call("netdev", "tx", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := c.Reboot("netdev"); err != nil {
			t.Fatal(err)
		}
		if nd.TxFrames != 0 {
			t.Fatalf("TxFrames = %d after reboot, want 0 (nothing aged survives)", nd.TxFrames)
		}
		// Still functional after the stateless reboot.
		if _, err := c.Call("netdev", "tx", []byte("y")); err != nil {
			t.Fatal(err)
		}
	})
}
