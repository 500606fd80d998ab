package core

import (
	"encoding/binary"
	"errors"
	"strconv"
	"testing"
	"time"

	"vampos/internal/msg"
	"vampos/internal/trace"
)

// kvComp is a stateful toy component: an int->string store with
// session semantics mimicking a file table (each key is a session,
// "k:<key>", that put opens and del closes), used to exercise logging,
// checkpointing, replay and shrinking end to end.
type kvComp struct {
	name      string
	data      map[int]string
	initCount int
	// backend, when set, makes put() call out to another component and
	// fold the result in — exercising outbound return-value logging.
	backend string
	// panicOn makes the given key crash the handler (fault injection);
	// zero arms nothing.
	panicOn int
	// hangOn makes the given key sleep forever (hang injection); zero
	// arms nothing.
	hangOn int
	// checkpointed selects checkpoint-based initialization.
	checkpointed bool
	// initSeed is installed by Init; lets tests observe re-inits.
	initSeed string
}

func (k *kvComp) Describe() Descriptor {
	return Descriptor{
		Name: k.name, Stateful: true, Checkpoint: k.checkpointed,
		HeapPages: 16, DomainPages: 16,
	}
}

func (k *kvComp) Init(ctx *Ctx) error {
	k.initCount++
	k.data = map[int]string{bootKey: k.initSeed}
	return nil
}

func (k *kvComp) Reset() { k.data = nil }

func (k *kvComp) Exports() map[string]Handler {
	return map[string]Handler{
		"put":  k.put,
		"get":  k.get,
		"del":  k.del,
		"echo": k.echo,
	}
}

func (k *kvComp) put(ctx *Ctx, args msg.Encoded) (msg.Encoded, error) {
	key, err := args.Int(0)
	if err != nil {
		return nil, err
	}
	val, err := args.Str(1)
	if err != nil {
		return nil, err
	}
	if k.panicOn != 0 && key == k.panicOn {
		k.panicOn = 0 // non-deterministic fault: next attempt succeeds
		panic("injected crash in put")
	}
	if k.hangOn != 0 && key == k.hangOn {
		k.hangOn = 0
		for {
			ctx.Sleep(10 * time.Second)
		}
	}
	if k.backend != "" {
		rets, err := ctx.Call(k.backend, "echo", val)
		if err != nil {
			return nil, err
		}
		val, err = rets.Str(0)
		if err != nil {
			return nil, err
		}
	}
	k.data[key] = val
	// The result depends on this key's session alone, so a session
	// microreboot's replay reproduces it against the other keys' state.
	return ctx.Ret(len(val))
}

func (k *kvComp) get(ctx *Ctx, args msg.Encoded) (msg.Encoded, error) {
	key, err := args.Int(0)
	if err != nil {
		return nil, err
	}
	v, ok := k.data[key]
	if !ok {
		return nil, ENOENT
	}
	return ctx.Ret(v)
}

func (k *kvComp) del(ctx *Ctx, args msg.Encoded) (msg.Encoded, error) {
	key, err := args.Int(0)
	if err != nil {
		return nil, err
	}
	delete(k.data, key)
	return nil, nil
}

func (k *kvComp) echo(ctx *Ctx, args msg.Encoded) (msg.Encoded, error) {
	s, err := args.Str(0)
	if err != nil {
		return nil, err
	}
	return ctx.Ret(s + "!")
}

// bootKey holds the seed Init installs, below every key a test writes.
const bootKey = -1

// kvSessions is kvComp's session namespace: one session per key.
var kvSessions = msg.NewNamespace("k")

func (k *kvComp) LogPolicies() (*msg.Namespace, map[string]LogPolicy) {
	return kvSessions, map[string]LogPolicy{
		"put": {Class: msg.ClassOpener, Session: Arg0, FaultByArg0: true},
		"del": {Class: msg.ClassCanceler, Session: Arg0},
		// "get" is state-unchanged: not logged at all.
	}
}

func (k *kvComp) SaveState() ([]byte, error) {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(k.data)))
	for _, key := range msg.SortedKeys(nil, k.data) {
		b = binary.BigEndian.AppendUint64(b, uint64(key))
		b = append(binary.BigEndian.AppendUint32(b, uint32(len(k.data[key]))), k.data[key]...)
	}
	return b, nil
}

func (k *kvComp) RestoreState(p []byte) error {
	// Decode into a fresh map and replace: merging into the live map
	// would keep post-image keys alive — exactly what a taint-aware
	// rollback must shed.
	r := msg.NewStateReader(p)
	data := make(map[int]string)
	for n := r.Count(12); n > 0; n-- {
		key := r.Int()
		data[key] = r.Str()
	}
	if err := r.Done(); err != nil {
		return err
	}
	k.data = data
	return nil
}

var (
	_ StateSaver        = (*kvComp)(nil)
	_ LogPolicyProvider = (*kvComp)(nil)
	_ ColdResetter      = (*kvComp)(nil)
)

// statelessComp counts its inits; reboots must re-run Init.
type statelessComp struct {
	name      string
	initCount int
}

func (s *statelessComp) Describe() Descriptor {
	return Descriptor{Name: s.name, HeapPages: 4, DomainPages: 4}
}

func (s *statelessComp) Init(*Ctx) error {
	s.initCount++
	return nil
}

func (s *statelessComp) Exports() map[string]Handler {
	return map[string]Handler{
		"pid": func(ctx *Ctx, _ msg.Encoded) (msg.Encoded, error) {
			return ctx.Ret(4242)
		},
		// echo reads its first argument in place and answers with the
		// size of the encoding it was handed.
		"echo": func(ctx *Ctx, args msg.Encoded) (msg.Encoded, error) {
			if _, err := args.Int(0); err != nil {
				return nil, err
			}
			return ctx.Ret(len(args))
		},
	}
}

// virtioStub is unrebootable, like the real VIRTIO component.
type virtioStub struct{}

func (virtioStub) Describe() Descriptor {
	return Descriptor{Name: "virtio", Unrebootable: true, HeapPages: 4, DomainPages: 4}
}
func (virtioStub) Init(*Ctx) error             { return nil }
func (virtioStub) Exports() map[string]Handler { return map[string]Handler{} }

// run executes main on a fresh runtime with the given components.
func run(t *testing.T, cfg Config, comps []Component, main func(*Ctx)) *Runtime {
	t.Helper()
	cfg.MaxVirtualTime = time.Hour
	rt := NewRuntime(cfg)
	for _, c := range comps {
		if err := rt.Register(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Run(main); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rt
}

func mustCall(t *testing.T, c *Ctx, target, fn string, args ...any) msg.Encoded {
	t.Helper()
	rets, err := c.Call(target, fn, args...)
	if err != nil {
		t.Fatalf("%s.%s: %v", target, fn, err)
	}
	return rets
}

// statsOf reads one component's ComponentStats.
func statsOf(rt *Runtime, name string) ComponentStats {
	cs, _ := rt.ComponentStats(name)
	return cs
}

func TestVanillaDirectCalls(t *testing.T) {
	kv := &kvComp{name: "kv"}
	rt := run(t, VanillaConfig(), []Component{kv}, func(c *Ctx) {
		mustCall(t, c, "kv", "put", 1, "1")
		rets := mustCall(t, c, "kv", "get", 1)
		if v, _ := rets.Str(0); v != "1" {
			t.Errorf("get = %q, want 1", v)
		}
	})
	st := rt.Stats()
	if st.DirectCalls == 0 || st.Messages != 0 {
		t.Fatalf("vanilla stats = %+v, want direct calls only", st)
	}
	if statsOf(rt, "kv").LogLen != 0 {
		t.Fatalf("vanilla logged %d entries, want 0", statsOf(rt, "kv").LogLen)
	}
}

func TestMessagePassingCallAndLogging(t *testing.T) {
	kv := &kvComp{name: "kv"}
	rt := run(t, DaSConfig(), []Component{kv}, func(c *Ctx) {
		mustCall(t, c, "kv", "put", 1, "1")
		mustCall(t, c, "kv", "put", 2, "2")
		rets := mustCall(t, c, "kv", "get", 1)
		if v, _ := rets.Str(0); v != "1" {
			t.Errorf("get = %q", v)
		}
		_, err := c.Call("kv", "get", 99)
		if !errors.Is(err, ENOENT) {
			t.Errorf("get missing = %v, want ENOENT", err)
		}
	})
	if st := rt.Stats(); st.Messages != 4 {
		t.Fatalf("Messages = %d, want 4", st.Messages)
	}
	// puts logged, gets not
	if got := statsOf(rt, "kv").LogLen; got != 2 {
		t.Fatalf("log length = %d, want 2", got)
	}
}

func TestUnknownTargets(t *testing.T) {
	run(t, DaSConfig(), []Component{&kvComp{name: "kv"}}, func(c *Ctx) {
		var uc *UnknownComponentError
		if _, err := c.Call("nope", "x"); !errors.As(err, &uc) {
			t.Errorf("unknown component error = %v", err)
		}
		var uf *UnknownFunctionError
		if _, err := c.Call("kv", "nope"); !errors.As(err, &uf) {
			t.Errorf("unknown function error = %v", err)
		}
	})
}

func TestCrashTriggersRebootAndReplayRestoresState(t *testing.T) {
	kv := &kvComp{name: "kv", panicOn: 9}
	rt := NewRuntime(DaSConfig())
	tr := rt.NewTracer("detect")
	if err := rt.Register(kv); err != nil {
		t.Fatal(err)
	}
	err := rt.Run(func(c *Ctx) {
		mustCall(t, c, "kv", "put", 1, "1")
		mustCall(t, c, "kv", "put", 2, "2")
		// This put crashes the component; the runtime reboots it,
		// replays the log, retries the same input once, and the retry
		// succeeds (non-deterministic fault).
		mustCall(t, c, "kv", "put", 9, "3")
		// State written before the crash must have survived via replay.
		rets := mustCall(t, c, "kv", "get", 1)
		if v, _ := rets.Str(0); v != "1" {
			t.Errorf("a = %q after recovery, want 1", v)
		}
		rets = mustCall(t, c, "kv", "get", 9)
		if v, _ := rets.Str(0); v != "3" {
			t.Errorf("bomb = %q after retry, want 3", v)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var failures []string
	for _, e := range tr.Snapshot() {
		if e.Kind == trace.KindDetect {
			failures = append(failures, e.Component)
		}
	}
	if len(failures) != 1 || failures[0] != "kv" {
		t.Fatalf("detected failures = %v, want [kv]", failures)
	}
	reboots := rt.Reboots()
	if len(reboots) != 1 {
		t.Fatalf("reboot records = %d, want 1", len(reboots))
	}
	r := reboots[0]
	if r.ReplayedEntries != 2 {
		t.Errorf("replayed %d entries, want 2 (a and b)", r.ReplayedEntries)
	}
	if kv.initCount != 2 {
		t.Errorf("initCount = %d, want 2 (boot + cold re-init)", kv.initCount)
	}
	cs, _ := rt.ComponentStats("kv")
	if cs.Failures != 1 || cs.Reboots != 1 {
		t.Errorf("component stats = %+v", cs)
	}
}

func TestDeterministicCrashFailsStop(t *testing.T) {
	det := &detCrasher{name: "kv"}
	run(t, DaSConfig(), []Component{det}, func(c *Ctx) {
		_, err := c.Call("kv", "boom")
		if !errors.Is(err, ErrComponentFailed) {
			t.Errorf("deterministic crash = %v, want ErrComponentFailed", err)
		}
		// Subsequent calls fail fast.
		_, err = c.Call("kv", "boom")
		if !errors.Is(err, ErrComponentFailed) {
			t.Errorf("post-fail-stop call = %v, want ErrComponentFailed", err)
		}
	})
}

// detCrasher panics on every invocation: a deterministic bug.
type detCrasher struct {
	name string
}

func (d *detCrasher) Describe() Descriptor {
	return Descriptor{Name: d.name, Stateful: true, HeapPages: 4, DomainPages: 4}
}
func (d *detCrasher) Init(*Ctx) error { return nil }
func (d *detCrasher) Exports() map[string]Handler {
	return map[string]Handler{
		"boom": func(ctx *Ctx, _ msg.Encoded) (msg.Encoded, error) { panic("deterministic") },
	}
}

func TestHangDetectionTriggersReboot(t *testing.T) {
	kv := &kvComp{name: "kv", hangOn: 8}
	cfg := DaSConfig()
	cfg.HangThreshold = 500 * time.Millisecond
	cfg.WatchdogPeriod = 50 * time.Millisecond
	rt := run(t, cfg, []Component{kv}, func(c *Ctx) {
		mustCall(t, c, "kv", "put", 1, "1")
		// Hangs, then the watchdog reboots kv and the retry succeeds.
		mustCall(t, c, "kv", "put", 8, "2")
		rets := mustCall(t, c, "kv", "get", 8)
		if v, _ := rets.Str(0); v != "2" {
			t.Errorf("stuck = %q, want 2", v)
		}
	})
	if rt.Stats().Hangs != 1 {
		t.Fatalf("Hangs = %d, want 1", rt.Stats().Hangs)
	}
	reboots := rt.Reboots()
	if len(reboots) != 1 || reboots[0].Reason != "hang" {
		t.Fatalf("reboots = %+v", reboots)
	}
}

func TestProactiveRebootKeepsState(t *testing.T) {
	kv := &kvComp{name: "kv"}
	rt := run(t, DaSConfig(), []Component{kv}, func(c *Ctx) {
		for i := 0; i < 10; i++ {
			mustCall(t, c, "kv", "put", i, strconv.Itoa(i))
		}
		if err := c.Reboot("kv"); err != nil {
			t.Fatalf("Reboot: %v", err)
		}
		for i := 0; i < 10; i++ {
			rets := mustCall(t, c, "kv", "get", i)
			if v, _ := rets.Str(0); v != strconv.Itoa(i) {
				t.Errorf("key%d = %q after rejuvenation", i, v)
			}
		}
	})
	reboots := rt.Reboots()
	if len(reboots) != 1 || reboots[0].Reason != "proactive" {
		t.Fatalf("reboots = %+v", reboots)
	}
	if reboots[0].ReplayedEntries != 10 {
		t.Fatalf("replayed = %d, want 10", reboots[0].ReplayedEntries)
	}
}

func TestCheckpointBasedReboot(t *testing.T) {
	kv := &kvComp{name: "kv", checkpointed: true, initSeed: "seed-v1"}
	rt := run(t, DaSConfig(), []Component{kv}, func(c *Ctx) {
		mustCall(t, c, "kv", "put", 1, "7")
		if err := c.Reboot("kv"); err != nil {
			t.Fatal(err)
		}
		// Post-checkpoint state restored from snapshot, not re-init.
		rets := mustCall(t, c, "kv", "get", bootKey)
		if v, _ := rets.Str(0); v != "seed-v1" {
			t.Errorf("boot seed = %q, want seed from checkpoint", v)
		}
		rets = mustCall(t, c, "kv", "get", 1)
		if v, _ := rets.Str(0); v != "7" {
			t.Errorf("key 1 = %q after checkpointed reboot", v)
		}
	})
	if kv.initCount != 1 {
		t.Fatalf("initCount = %d, want 1 (checkpoint restore, no re-init)", kv.initCount)
	}
	// kvComp keeps its state in Go structs (SaveState) and never touches
	// its arena, so its post-init image has no resident pages and the
	// resident-page restore accounting correctly bills zero.
	if got := rt.Reboots()[0].RestoredPages; got != 0 {
		t.Fatalf("restored pages = %d, want 0 (arena never written)", got)
	}
}

func TestSessionShrinkingAcrossRuntime(t *testing.T) {
	kv := &kvComp{name: "kv"}
	rt := run(t, DaSConfig(), []Component{kv}, func(c *Ctx) {
		mustCall(t, c, "kv", "put", 1, "1") // opener session k:1
		mustCall(t, c, "kv", "put", 2, "2") // opener session k:2
		mustCall(t, c, "kv", "del", 1)      // canceler session k:1
		mustCall(t, c, "kv", "put", 1, "3") // reuse discards closed pair
	})
	// k:1(open#2) + k:2(open) = 2 retained (old 1 pair dropped on reuse).
	if got := statsOf(rt, "kv").LogLen; got != 3 {
		// open 2, del-canceled pair removed on reuse, new open 1, and the
		// canceler del itself was kept until reuse: recount precisely:
		// put 1 (opener), put 2 (opener), del 1 (canceler -> closes k:1),
		// put 1 (opener, reuse -> removes old put+del) = entries: put 2, put 1 = 2? or 3.
		t.Logf("retained entries = %d", got)
	}
	if got := statsOf(rt, "kv").LogLen; got != 2 {
		t.Fatalf("log length = %d, want 2 (put 2 + put 1)", got)
	}
}

func TestOutboundLoggingAndEncapsulatedReplay(t *testing.T) {
	// kv calls out to "backend" inside put; during kv's replay the
	// backend must NOT be re-invoked: its results come from the log.
	backend := &countingEcho{name: "backend"}
	kv := &kvComp{name: "kv", backend: "backend"}
	rt := run(t, DaSConfig(), []Component{backend, kv}, func(c *Ctx) {
		mustCall(t, c, "kv", "put", 1, "1")
		calls := backend.calls
		if err := c.Reboot("kv"); err != nil {
			t.Fatal(err)
		}
		if backend.calls != calls {
			t.Errorf("backend invoked %d extra times during replay", backend.calls-calls)
		}
		rets := mustCall(t, c, "kv", "get", 1)
		if v, _ := rets.Str(0); v != "1!" {
			t.Errorf("a = %q after replay, want 1! (backend-transformed)", v)
		}
	})
	_ = rt
}

// countingEcho counts real invocations, to prove encapsulation.
type countingEcho struct {
	name  string
	calls int
}

func (e *countingEcho) Describe() Descriptor {
	return Descriptor{Name: e.name, HeapPages: 4, DomainPages: 4}
}
func (e *countingEcho) Init(*Ctx) error { return nil }
func (e *countingEcho) Exports() map[string]Handler {
	return map[string]Handler{
		"echo": func(ctx *Ctx, args msg.Encoded) (msg.Encoded, error) {
			e.calls++
			s, err := args.Str(0)
			if err != nil {
				return nil, err
			}
			return ctx.Ret(s + "!")
		},
	}
}

func TestMergedGroupDirectCallsAndCompositeReboot(t *testing.T) {
	backend := &kvComp{name: "backend"}
	front := &kvComp{name: "front", backend: "backend"}
	cfg := DaSConfig()
	cfg.Merges = [][]string{{"front", "backend"}}
	rt := run(t, cfg, []Component{backend, front}, func(c *Ctx) {
		mustCall(t, c, "front", "put", 1, "1")
		mustCall(t, c, "backend", "put", 2, "9")
		// Rebooting either member reboots the composite.
		if err := c.Reboot("backend"); err != nil {
			t.Fatal(err)
		}
		rets := mustCall(t, c, "front", "get", 1)
		if v, _ := rets.Str(0); v != "1!" {
			t.Errorf("front 1 = %q, want 1!", v)
		}
		rets = mustCall(t, c, "backend", "get", 2)
		if v, _ := rets.Str(0); v != "9" {
			t.Errorf("backend 2 = %q, want 9", v)
		}
	})
	gf, gb := statsOf(rt, "front").Group, statsOf(rt, "backend").Group
	if gf != gb {
		t.Fatalf("merged components in different groups: %q vs %q", gf, gb)
	}
	reboots := rt.Reboots()
	if len(reboots) != 1 || len(reboots[0].Components) != 2 {
		t.Fatalf("composite reboot records = %+v", reboots)
	}
	// Intra-group calls are direct.
	if rt.Stats().DirectCalls == 0 {
		t.Fatal("merged group made no direct calls")
	}
}

func TestStatelessRebootReInits(t *testing.T) {
	sc := &statelessComp{name: "process"}
	run(t, DaSConfig(), []Component{sc}, func(c *Ctx) {
		rets := mustCall(t, c, "process", "pid")
		if v, _ := rets.Int(0); v != 4242 {
			t.Errorf("pid = %d", v)
		}
		if err := c.Reboot("process"); err != nil {
			t.Fatal(err)
		}
		mustCall(t, c, "process", "pid")
	})
	if sc.initCount != 2 {
		t.Fatalf("initCount = %d, want 2", sc.initCount)
	}
}

func TestUnrebootableRefused(t *testing.T) {
	run(t, DaSConfig(), []Component{virtioStub{}}, func(c *Ctx) {
		if err := c.Reboot("virtio"); !errors.Is(err, ErrUnrebootable) {
			t.Errorf("Reboot(virtio) = %v, want ErrUnrebootable", err)
		}
	})
}

func TestRebootRequiresMessagePassing(t *testing.T) {
	run(t, VanillaConfig(), []Component{&kvComp{name: "kv"}}, func(c *Ctx) {
		if err := c.Reboot("kv"); err == nil {
			t.Error("vanilla Reboot succeeded, want error")
		}
	})
}

func TestConcurrentAppThreads(t *testing.T) {
	kv := &kvComp{name: "kv"}
	run(t, DaSConfig(), []Component{kv}, func(c *Ctx) {
		done := 0
		for i := 0; i < 8; i++ {
			i := i
			c.Go("worker"+strconv.Itoa(i), func(wc *Ctx) {
				for j := 0; j < 20; j++ {
					mustCall(t, wc, "kv", "put", i*100+j, "v")
				}
				done++
			})
		}
		for done < 8 {
			c.Sleep(time.Millisecond)
		}
		if len(kv.data) != 8*20+1 { // +1 for bootKey
			t.Errorf("kv has %d entries, want %d", len(kv.data), 8*20+1)
		}
	})
}

func TestRejuvenationUnderLoadLosesNothing(t *testing.T) {
	// The Table V property at runtime scale: reboot the component every
	// N requests while a writer hammers it; every request must succeed.
	kv := &kvComp{name: "kv"}
	run(t, DaSConfig(), []Component{kv}, func(c *Ctx) {
		writerDone := false
		var failed int
		c.Go("writer", func(wc *Ctx) {
			for j := 0; j < 200; j++ {
				if _, err := wc.Call("kv", "put", j, "v"); err != nil {
					failed++
				}
			}
			writerDone = true
		})
		for i := 0; !writerDone; i++ {
			if err := c.Reboot("kv"); err != nil {
				t.Fatalf("rejuvenation %d: %v", i, err)
			}
			c.Sleep(100 * time.Microsecond)
		}
		if failed != 0 {
			t.Errorf("%d requests failed across rejuvenations, want 0", failed)
		}
	})
}

func TestInjectFireAndForget(t *testing.T) {
	kv := &kvComp{name: "kv"}
	rt := run(t, DaSConfig(), []Component{kv}, func(c *Ctx) {
		if err := c.rt.Inject(c, "kv", "put", 15, "1"); err != nil {
			t.Fatal(err)
		}
		// The injection completes asynchronously; poll for it.
		for {
			rets, err := c.Call("kv", "get", 15)
			if err == nil {
				if v, _ := rets.Str(0); v == "1" {
					break
				}
			}
			c.Sleep(10 * time.Microsecond)
		}
	})
	if rt.Stats().Injects != 1 {
		t.Fatalf("Injects = %d, want 1", rt.Stats().Injects)
	}
}

func TestKeysInUseMatchesPaperBudget(t *testing.T) {
	comps := []Component{}
	for _, n := range []string{"a", "b", "c", "d", "e", "f", "g"} {
		comps = append(comps, &statelessComp{name: n})
	}
	rt := run(t, DaSConfig(), comps, func(c *Ctx) {})
	// app + 7 components + message domain + scheduler = 10 tags, the
	// paper's SQLite figure.
	if got := rt.KeysInUse(); got != 10 {
		t.Fatalf("KeysInUse = %d, want 10", got)
	}
}

func TestTooManyComponentsExhaustKeys(t *testing.T) {
	rt := NewRuntime(DaSConfig())
	for i := 0; i < 13; i++ {
		if err := rt.Register(&statelessComp{name: "c" + strconv.Itoa(i)}); err != nil {
			t.Fatal(err)
		}
	}
	err := rt.Run(func(*Ctx) {})
	if err == nil {
		t.Fatal("13 components fit in 16 keys with 3 reserved + key 0, want failure")
	}
}

func TestRoundRobinConfigServesCalls(t *testing.T) {
	kv := &kvComp{name: "kv"}
	rt := run(t, NoopConfig(), []Component{kv}, func(c *Ctx) {
		mustCall(t, c, "kv", "put", 1, "1")
		rets := mustCall(t, c, "kv", "get", 1)
		if v, _ := rets.Str(0); v != "1" {
			t.Errorf("get = %q", v)
		}
		c.Runtime().Stop()
	})
	_ = rt
}

func TestDaSUsesFewerDispatchesThanNoop(t *testing.T) {
	// The Fig. 5 mechanism: same workload, round-robin vs
	// dependency-aware; DaS must need fewer dispatches per call.
	load := func(cfg Config, extra int) uint64 {
		comps := []Component{&kvComp{name: "kv"}}
		for i := 0; i < extra; i++ {
			comps = append(comps, &statelessComp{name: "idle" + strconv.Itoa(i)})
		}
		rt := run(t, cfg, comps, func(c *Ctx) {
			for j := 0; j < 50; j++ {
				mustCall(t, c, "kv", "put", 1, "v")
			}
			c.Runtime().Stop()
		})
		return rt.SchedStats().Dispatches
	}
	noop := load(NoopConfig(), 6)
	das := load(DaSConfig(), 6)
	if das >= noop {
		t.Fatalf("DaS dispatches (%d) not fewer than Noop (%d)", das, noop)
	}
}

func TestVirtualTimeChargedPerMechanism(t *testing.T) {
	kv := &kvComp{name: "kv"}
	rt := run(t, DaSConfig(), []Component{kv}, func(c *Ctx) {
		start := c.Elapsed()
		mustCall(t, c, "kv", "put", 1, "1")
		if c.Elapsed() <= start {
			t.Error("message-passing call advanced no virtual time")
		}
	})
	_ = rt
}

func TestRegisterValidation(t *testing.T) {
	rt := NewRuntime(DaSConfig())
	if err := rt.Register(&kvComp{name: "kv"}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Register(&kvComp{name: "kv"}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := rt.Register(&kvComp{name: ""}); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestMergeValidation(t *testing.T) {
	cfg := DaSConfig()
	cfg.Merges = [][]string{{"kv"}}
	rt := NewRuntime(cfg)
	if err := rt.Register(&kvComp{name: "kv"}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(func(*Ctx) {}); err == nil {
		t.Fatal("single-member merge accepted")
	}

	cfg = DaSConfig()
	cfg.Merges = [][]string{{"kv", "ghost"}}
	rt = NewRuntime(cfg)
	if err := rt.Register(&kvComp{name: "kv"}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(func(*Ctx) {}); err == nil {
		t.Fatal("merge with unknown member accepted")
	}
}
