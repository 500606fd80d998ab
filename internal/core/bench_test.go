package core

import "testing"

// benchCall times the smallest call — no arguments, one small result, no
// logging — from an application thread: under DaS one full message round
// trip (Fig. 5's getpid), under vanilla the direct call it replaces.
func benchCall(b *testing.B, cfg Config) { benchCallArgs(b, cfg, "pid") }

// benchCallArgs times the call fn with args, as benchCall does.
func benchCallArgs(b *testing.B, cfg Config, fn string, args ...any) {
	rt := NewRuntime(cfg)
	if err := rt.Register(&statelessComp{name: "proc"}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	err := rt.Run(func(c *Ctx) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Call("proc", fn, args...); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
	rt.Close()
}

func BenchmarkCallDaS(b *testing.B)     { benchCall(b, DaSConfig()) }
func BenchmarkCallVanilla(b *testing.B) { benchCall(b, VanillaConfig()) }

// BenchmarkCallDaSArgs is BenchmarkCallDaS with arguments: an int too
// large for the runtime's static boxes and a 64-byte payload, which cross
// the hop as bytes.
func BenchmarkCallDaSArgs(b *testing.B) {
	benchCallArgs(b, DaSConfig(), "echo", 4096, make([]byte, 64))
}

// BenchmarkPendingNested times the pending table through four nested
// calls, the shape of one echo_rtt hop chain: each is added in seq order,
// looked up, and resolved innermost first.
func BenchmarkPendingNested(b *testing.B) {
	var p pendingTable
	calls := make([]pendingCall, 4)
	var seq uint64
	for i := 0; i < b.N; i++ {
		for j := range calls {
			seq++
			calls[j].seq = seq
			p.add(&calls[j])
		}
		for j := len(calls) - 1; j >= 0; j-- {
			if p.get(calls[j].seq) == nil {
				b.Fatal("live call not found")
			}
			p.resolve(&calls[j])
		}
	}
}
