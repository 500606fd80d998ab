package redis

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"vampos/internal/core"
	"vampos/internal/host"
	"vampos/internal/sched"
	"vampos/internal/unikernel"
)

func withRedis(t *testing.T, coreCfg core.Config, app *App, fn func(s *unikernel.Sys, a *App)) {
	t.Helper()
	coreCfg.MaxVirtualTime = time.Hour
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

// client is a minimal redis-protocol client over a peer connection.
type client struct {
	t    *testing.T
	th   *sched.Thread
	conn *host.PeerConn
}

func dialRedis(t *testing.T, s *unikernel.Sys, th *sched.Thread) *client {
	t.Helper()
	peer := s.NewPeer()
	conn, err := peer.Dial(th, DefaultPort, 2*time.Second)
	if err != nil {
		t.Fatalf("dial redis: %v", err)
	}
	return &client{t: t, th: th, conn: conn}
}

// cmd sends one command line and returns the first response line.
func (c *client) cmd(line string) string {
	c.t.Helper()
	if err := c.conn.Send(c.th, []byte(line+"\n")); err != nil {
		c.t.Fatalf("send %q: %v", line, err)
	}
	resp, err := c.conn.RecvLine(c.th, 2*time.Second)
	if err != nil {
		c.t.Fatalf("recv for %q: %v", line, err)
	}
	return strings.TrimRight(string(resp), "\n")
}

// get runs GET and returns (value, found).
func (c *client) get(key string) (string, bool) {
	head := c.cmd("GET " + key)
	if head == "$-1" {
		return "", false
	}
	n, err := strconv.Atoi(strings.TrimPrefix(head, "$"))
	if err != nil {
		c.t.Fatalf("bad GET header %q", head)
	}
	body, err := c.conn.RecvExactly(c.th, n+1, 2*time.Second) // value + \n
	if err != nil {
		c.t.Fatalf("recv body: %v", err)
	}
	return string(body[:n]), true
}

func TestSetGetDelOverNetwork(t *testing.T) {
	withRedis(t, core.DaSConfig(), New(), func(s *unikernel.Sys, a *App) {
		c := dialRedis(t, s, s.Ctx().Thread())
		if got := c.cmd("PING"); got != "+PONG" {
			t.Fatalf("PING = %q", got)
		}
		if got := c.cmd("SET k1 hello"); got != "+OK" {
			t.Fatalf("SET = %q", got)
		}
		if v, ok := c.get("k1"); !ok || v != "hello" {
			t.Fatalf("GET k1 = %q, %v", v, ok)
		}
		if _, ok := c.get("missing"); ok {
			t.Fatal("GET missing found a value")
		}
		if got := c.cmd("DEL k1"); got != ":1" {
			t.Fatalf("DEL = %q", got)
		}
		if _, ok := c.get("k1"); ok {
			t.Fatal("GET after DEL found a value")
		}
		if got := c.cmd("DEL k1"); got != ":0" {
			t.Fatalf("second DEL = %q", got)
		}
		if got := c.cmd("BOGUS"); !strings.HasPrefix(got, "-ERR") {
			t.Fatalf("BOGUS = %q", got)
		}
	})
}

func TestAOFDurabilityAcrossFullReboot(t *testing.T) {
	app := New()
	withRedis(t, core.DaSConfig(), app, func(s *unikernel.Sys, a *App) {
		th := s.Ctx().Thread()
		c := dialRedis(t, s, th)
		for i := 0; i < 25; i++ {
			c.cmd("SET key" + strconv.Itoa(i) + " val" + strconv.Itoa(i))
		}
		c.cmd("DEL key3")
		if err := s.FullReboot(); err != nil {
			t.Fatalf("full reboot: %v", err)
		}
		if a.AOFReplayed != 26 {
			t.Fatalf("AOF replayed %d entries, want 26", a.AOFReplayed)
		}
		if a.Keys() != 24 {
			t.Fatalf("keys after AOF reload = %d, want 24", a.Keys())
		}
		c2 := dialRedis(t, s, th)
		if v, ok := c2.get("key7"); !ok || v != "val7" {
			t.Fatalf("key7 after reboot = %q, %v", v, ok)
		}
		if _, ok := c2.get("key3"); ok {
			t.Fatal("deleted key3 resurrected by AOF reload")
		}
	})
}

func TestValuesKeptInGuestMemory(t *testing.T) {
	withRedis(t, core.DaSConfig(), New(), func(s *unikernel.Sys, a *App) {
		c := dialRedis(t, s, s.Ctx().Thread())
		big := strings.Repeat("x", 4096)
		before := s.Instance().Runtime().ResidentBytes()
		for i := 0; i < 64; i++ {
			c.cmd("SET big" + strconv.Itoa(i) + " " + big)
		}
		after := s.Instance().Runtime().ResidentBytes()
		if after-before < 64*4096/2 {
			t.Fatalf("resident grew only %d bytes for 256 KiB of values", after-before)
		}
	})
}

func TestRedisSurvives9PFSFailure(t *testing.T) {
	// The Fig. 8 scenario in miniature: inject a 9PFS fail-stop while
	// Redis serves; VampOS reboots the component, the in-flight fsync
	// retries, and no request is lost.
	app := New()
	withRedis(t, core.DaSConfig(), app, func(s *unikernel.Sys, a *App) {
		c := dialRedis(t, s, s.Ctx().Thread())
		for i := 0; i < 5; i++ {
			c.cmd("SET warm" + strconv.Itoa(i) + " v")
		}
		// Make the next 9P write crash inside 9PFS: the paper's Fig. 8
		// failure injection ("we force 9PFS to call panic()").
		if err := s.Instance().Runtime().ArmFault("9pfs", "uk_9pfs_write", core.FaultCrash); err != nil {
			t.Fatal(err)
		}
		if got := c.cmd("SET boom now"); got != "+OK" {
			t.Fatalf("SET across 9pfs crash = %q", got)
		}
		if v, ok := c.get("boom"); !ok || v != "now" {
			t.Fatalf("boom = %q, %v", v, ok)
		}
		rt := s.Instance().Runtime()
		if rt.Stats().Failures != 1 {
			t.Fatalf("failures = %d, want 1", rt.Stats().Failures)
		}
		reboots := rt.Reboots()
		if len(reboots) != 1 || reboots[0].Group != "9pfs" {
			t.Fatalf("reboots = %+v", reboots)
		}
	})
}
