package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"vampos/internal/core"
	"vampos/internal/unikernel"
)

func newTestCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(Config{Nodes: 3, Replication: 2, Core: core.DaSConfig()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(c.Stop)
	return c
}

// quiesce pumps gossip to convergence and asserts every live replica
// byte-agrees.
func quiesce(t *testing.T, c *Cluster) {
	t.Helper()
	if _, err := c.GossipUntilQuiet(); err != nil {
		t.Fatalf("GossipUntilQuiet: %v", err)
	}
	ok, err := c.Converged()
	if err != nil {
		t.Fatalf("Converged: %v", err)
	}
	if !ok {
		t.Fatal("replicas disagree after quiet gossip")
	}
}

// expectEverywhere asserts key=val is readable on every live member.
func expectEverywhere(t *testing.T, c *Cluster, key, val string) {
	t.Helper()
	for id := 0; id < c.Nodes(); id++ {
		if !c.Alive(id) {
			continue
		}
		got, ok, err := c.GetFrom(id, key)
		if err != nil {
			t.Fatalf("GetFrom(%d, %q): %v", id, key, err)
		}
		if !ok || got != val {
			t.Fatalf("node %d: %q = %q (present=%v), want %q", id, key, got, ok, val)
		}
	}
}

func TestClusterReplication(t *testing.T) {
	c := newTestCluster(t)
	for i := 0; i < 9; i++ {
		key := fmt.Sprintf("k%02d", i)
		if err := c.PutVia(i%3, key, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("PutVia(%q): %v", key, err)
		}
	}
	quiesce(t, c)
	for i := 0; i < 9; i++ {
		expectEverywhere(t, c, fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i))
	}
	// Overwrite and delete propagate too.
	if err := c.PutVia(1, "k00", "v0b"); err != nil {
		t.Fatal(err)
	}
	if err := c.DelVia(2, "k01"); err != nil {
		t.Fatal(err)
	}
	quiesce(t, c)
	expectEverywhere(t, c, "k00", "v0b")
	for id := 0; id < 3; id++ {
		if _, ok, _ := c.GetFrom(id, "k01"); ok {
			t.Fatalf("node %d still holds deleted k01", id)
		}
	}
	st := c.Stats()
	if st.Acked != 11 || st.Rejected != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestKillReviveDurability(t *testing.T) {
	c := newTestCluster(t)
	acked := map[string]string{}
	put := func(via int, key, val string) {
		t.Helper()
		if err := c.PutVia(via, key, val); err != nil {
			t.Fatalf("PutVia(%d, %q): %v", via, key, err)
		}
		acked[key] = val
	}
	for i := 0; i < 8; i++ {
		put(i%3, fmt.Sprintf("warm%02d", i), fmt.Sprintf("w%d", i))
	}
	quiesce(t, c)

	victim := 1
	if err := c.KillInstance(victim); err != nil {
		t.Fatalf("KillInstance: %v", err)
	}
	// Writes during the outage fail over to the survivors and still ack.
	for i := 0; i < 6; i++ {
		put((victim+1+i%2)%3, fmt.Sprintf("out%02d", i), fmt.Sprintf("o%d", i))
	}
	if err := c.ReviveInstance(victim); err != nil {
		t.Fatalf("ReviveInstance: %v", err)
	}
	quiesce(t, c)
	// Zero acknowledged writes lost: every acked key on every member,
	// including the revived one whose local state died with it.
	for k, v := range acked {
		expectEverywhere(t, c, k, v)
	}
	st := c.Stats()
	if st.Kills != 1 || st.Revives != 1 || st.Resyncs != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Rejected != 0 {
		t.Fatalf("unexpected rejects: %+v", st)
	}
	if v := c.NodeVirtual(victim); v <= 0 {
		t.Fatalf("revived node virtual clock %v", v)
	}
}

func TestPartitionHeal(t *testing.T) {
	c := newTestCluster(t)
	for i := 0; i < 6; i++ {
		if err := c.PutVia(0, fmt.Sprintf("w%02d", i), "x"); err != nil {
			t.Fatal(err)
		}
	}
	quiesce(t, c)

	victim := 2
	c.Isolate(victim)
	// The majority side keeps acknowledging writes.
	for i := 0; i < 4; i++ {
		via := (victim + 1 + i%2) % 3
		if err := c.PutVia(via, fmt.Sprintf("maj%02d", i), "m"); err != nil {
			t.Fatalf("majority write %d: %v", i, err)
		}
	}
	// The isolated minority cannot reach a quorum: every write is
	// refused, never acknowledged — so none can be lost.
	for i := 0; i < 3; i++ {
		if err := c.PutVia(victim, fmt.Sprintf("min%02d", i), "m"); err == nil {
			t.Fatalf("minority write %d was acknowledged", i)
		}
	}
	c.Heal()
	quiesce(t, c)
	for i := 0; i < 4; i++ {
		expectEverywhere(t, c, fmt.Sprintf("maj%02d", i), "m")
	}
	st := c.Stats()
	if st.Rejected != 3 {
		t.Fatalf("want 3 rejected minority writes, stats %+v", st)
	}
}

// TestEscalationLadder: a reboot-able component recovers on the first
// rung without touching the instance; the unrebootable VIRTIO escalates
// to instance kill + revive + resync.
func TestEscalationLadder(t *testing.T) {
	c := newTestCluster(t)
	for i := 0; i < 6; i++ {
		if err := c.PutVia(i%3, fmt.Sprintf("k%02d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	quiesce(t, c)

	rec, err := c.RecoverComponent(0, "vfs")
	if err != nil {
		t.Fatalf("RecoverComponent(vfs): %v", err)
	}
	if rec.Rung.String() != "component-reboot" {
		t.Fatalf("vfs reboot escalated: %+v", rec)
	}
	if !c.Alive(0) {
		t.Fatal("node 0 died on a component reboot")
	}

	rec, err = c.RecoverComponent(0, "virtio")
	if err != nil {
		t.Fatalf("RecoverComponent(virtio): %v", err)
	}
	if rec.Err == nil || rec.Rung.String() != "instance-kill" {
		t.Fatalf("virtio fault did not escalate: %+v", rec)
	}
	if c.Alive(0) {
		t.Fatal("escalation left node 0 alive")
	}
	if err := c.ReviveInstance(0); err != nil {
		t.Fatalf("ReviveInstance: %v", err)
	}
	quiesce(t, c)
	for i := 0; i < 6; i++ {
		expectEverywhere(t, c, fmt.Sprintf("k%02d", i), "v")
	}
	st := c.Stats()
	if st.ComponentReboots != 1 || st.Escalations != 1 || st.Kills != 1 || st.Revives != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestGossipComponentReboot: the gossip component itself is stateful
// and recovers by encapsulated replay — rebooting it must reproduce the
// exact replication table.
func TestGossipComponentReboot(t *testing.T) {
	c := newTestCluster(t)
	for i := 0; i < 6; i++ {
		if err := c.PutVia(i%3, fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	quiesce(t, c)
	before, err := c.Snapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := c.RecoverComponent(1, "gossip")
	if err != nil || rec.Rung.String() != "component-reboot" {
		t.Fatalf("gossip reboot: rec=%+v err=%v", rec, err)
	}
	after, err := c.Snapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("gossip table diverged across component reboot")
	}
}

// TestRungStrings pins the ladder's names: escalation records print them.
func TestRungStrings(t *testing.T) {
	for r, want := range map[Rung]string{
		RungSession:   "session-microreboot",
		RungComponent: "component-reboot",
		RungInstance:  "instance-kill",
		RungRestart:   "full-restart",
		Rung(9):       "Rung(9)",
	} {
		if got := r.String(); got != want {
			t.Errorf("Rung(%d).String() = %q, want %q", uint8(r), got, want)
		}
	}
}

func TestWriteValidation(t *testing.T) {
	c := newTestCluster(t)
	if err := c.PutVia(0, "bad key", "v"); err == nil {
		t.Fatal("key with space accepted")
	}
	if err := c.PutVia(0, "k", "bad\nval"); err == nil {
		t.Fatal("value with newline accepted")
	}
	// A key longer than the wire format's u16 length field would silently
	// truncate in the gossip codec; it must be refused up front.
	if err := c.PutVia(0, strings.Repeat("k", 1<<16), "v"); err == nil {
		t.Fatal("oversized key accepted")
	}
	if st := c.Stats(); st.Rejected != 3 || st.Acked != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// keyOwnedBy finds a key whose ring placement starts at node id.
func keyOwnedBy(t *testing.T, c *Cluster, id int) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("sk%03d", i)
		if int(fnv1a(k)%uint64(c.Nodes())) == id {
			return k
		}
	}
	t.Fatal("no key found for owner")
	return ""
}

// TestStaleOwnerWriteRejected pins the ack-loss hole: a formerly
// isolated member whose key was overwritten by the majority mints a
// clock that ties on sum and loses the LWW tiebreak. The backup rejects
// the delta, so the write must be refused — acknowledging it would lose
// it on the very next gossip round. The rejection also repairs the
// owner, so an immediate retry dominates and acks.
func TestStaleOwnerWriteRejected(t *testing.T) {
	c := newTestCluster(t)
	victim := 2
	key := keyOwnedBy(t, c, victim)
	if err := c.PutVia(0, key, "v1"); err != nil {
		t.Fatal(err)
	}
	quiesce(t, c)

	c.Isolate(victim)
	// The majority overwrites the key while its home node is cut off.
	if err := c.PutVia((victim+1)%3, key, "v2"); err != nil {
		t.Fatalf("majority overwrite: %v", err)
	}
	// Quorum reads on the minority fail instead of serving stale state.
	if _, _, err := c.GetVia(victim, key); err == nil {
		t.Fatal("minority quorum read served an answer")
	}
	c.Heal()

	// Before any gossip round: the victim's replica is stale, but a
	// quorum read via the victim still returns the acknowledged value.
	if got, ok, err := c.GetVia(victim, key); err != nil || !ok || got != "v2" {
		t.Fatalf("quorum read after heal: %q (present=%v, err=%v), want v2", got, ok, err)
	}

	// A write minted from the victim's stale clock loses at the backup
	// and must NOT be acknowledged.
	err := c.PutVia(victim, key, "v3")
	if err == nil {
		t.Fatal("stale-clocked write was acknowledged")
	}
	if !errors.Is(err, ErrNotReplicated) {
		t.Fatalf("want ErrNotReplicated, got %v", err)
	}
	// The rejection pulled the backup's winner into the owner: the retry
	// mints a dominating clock and acks.
	if err := c.PutVia(victim, key, "v3"); err != nil {
		t.Fatalf("retry after owner resync: %v", err)
	}
	quiesce(t, c)
	expectEverywhere(t, c, key, "v3")
	if st := c.Stats(); st.Rejected != 1 || st.Acked != 3 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestReviveRequiresDonor: reviving a member while it is still
// partitioned from every live peer must fail and leave it down —
// otherwise it would serve empty reads and mint low-sum clocks from
// pre-death state. After the heal the revival (with resync) succeeds.
func TestReviveRequiresDonor(t *testing.T) {
	c := newTestCluster(t)
	if err := c.PutVia(0, "k", "v"); err != nil {
		t.Fatal(err)
	}
	quiesce(t, c)

	victim := 1
	if err := c.KillInstance(victim); err != nil {
		t.Fatal(err)
	}
	c.Isolate(victim)
	if err := c.ReviveInstance(victim); err == nil {
		t.Fatal("revive without a reachable donor succeeded")
	}
	if c.Alive(victim) {
		t.Fatal("donorless revive left the member routable")
	}
	c.Heal()
	if err := c.ReviveInstance(victim); err != nil {
		t.Fatalf("revive after heal: %v", err)
	}
	quiesce(t, c)
	expectEverywhere(t, c, "k", "v")
	if st := c.Stats(); st.Revives != 1 || st.Resyncs != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestBackstopNamesTheCause: a member whose simulation the virtual-time
// backstop stops mid-command reports why, on that command, on every
// later one and on the kill.
func TestBackstopNamesTheCause(t *testing.T) {
	cfg := core.DaSConfig()
	cfg.MaxVirtualTime = 2 * time.Second
	c, err := New(Config{Core: cfg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(c.Stop)
	n := c.nodes[0]
	err = n.do(func(s *unikernel.Sys) error { s.Sleep(time.Hour); return nil })
	if err == nil || strings.Contains(err.Error(), "%!") || !errors.Is(err, errHalted) {
		t.Fatalf("command past the backstop = %v, want a wrapped %v", err, errHalted)
	}
	err = n.do(func(*unikernel.Sys) error { return nil })
	if err == nil || strings.Contains(err.Error(), "%!") || !errors.Is(err, errHalted) {
		t.Fatalf("next command = %v, want a wrapped %v", err, errHalted)
	}
	if err := c.KillInstance(0); err != errHalted {
		t.Fatalf("KillInstance = %v, want %v", err, errHalted)
	}
}

// TestEveryPathEndsTheMember: boot, a write, a kill, a revive and Stop
// between them end every member's coroutine — an iter.Pull that is
// never stopped leaves a goroutine parked for good.
func TestEveryPathEndsTheMember(t *testing.T) {
	base := runtime.NumGoroutine()
	c, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.PutVia(0, "k", "v"); err != nil {
		t.Fatalf("PutVia: %v", err)
	}
	if err := c.KillInstance(1); err != nil {
		t.Fatalf("KillInstance: %v", err)
	}
	if err := c.ReviveInstance(1); err != nil {
		t.Fatalf("ReviveInstance: %v", err)
	}
	c.Stop()
	n := runtime.NumGoroutine()
	for i := 0; i < 50 && n > base; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > base {
		t.Fatalf("%d goroutines after Stop, %d before New: a member was left parked", n, base)
	}
}
