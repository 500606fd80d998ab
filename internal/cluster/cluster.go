// Package cluster runs N unikernel instances in one process and
// replicates the redis/KVS application state between them with a
// delta-gossip protocol over per-key vector clocks (internal/cluster/
// gossip). It extends the paper's recovery hierarchy into a four-rung
// ladder: session microreboot and component reboot stay inside the
// instance, but a fault the instance cannot contain — a VIRTIO failure,
// a whole-instance crash, a network partition — escalates to killing
// the member and rebuilding it from its peers by anti-entropy resync
// (and, for the last live member, to a full in-place restart), the
// microreboot ladder Candea argues for and ReHype applies below the
// kernel.
//
// The coordinator is strictly single-threaded and every member only
// executes while the coordinator waits on it (see node), so a
// multi-instance cluster is as deterministic as one instance: the same
// seed yields byte-identical trial matrices regardless of -parallel.
//
// Routing is per-key ownership on a hash ring: the owner is the first
// live reachable candidate in ring order, writes are acknowledged only
// after the owner and Replication-1 backups applied them (synchronous
// W-replication), so a partitioned minority rejects writes instead of
// accepting ones it could later lose — the invariant behind the
// campaign oracle's "zero acknowledged writes lost". A backup that
// rejects a delta under the LWW merge (a stale-clocked owner, fresh
// from a heal or revive) fails the write too, and reads through GetVia
// are quorum reads, so acknowledged state is also what clients read.
package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"time"

	"vampos/internal/cluster/gossip"
	"vampos/internal/core"
	"vampos/internal/unikernel"
)

// Config sizes and parameterises a cluster.
type Config struct {
	// Nodes is the member count. Default 3.
	Nodes int
	// Replication is the synchronous write quorum W: the owner plus W-1
	// backups must apply a write before it is acknowledged. Default 2.
	Replication int
	// Core is the per-member runtime configuration. Default DaSConfig.
	Core core.Config
	// OnInstance, when set, is called for every assembled member (boots
	// and revivals) before it starts — the hook campaigns use to attach
	// flight recorders.
	OnInstance func(id int, inst *unikernel.Instance)
}

func (c Config) fill() Config {
	if c.Nodes == 0 {
		c.Nodes = 3
	}
	if c.Replication == 0 {
		c.Replication = 2
	}
	if c.Core.Policy == 0 {
		// Every constructor sets a policy: none means Core was left unset.
		c.Core = core.DaSConfig()
	}
	return c
}

// Stats is the cluster's lifetime accounting.
type Stats struct {
	Puts, Gets, Dels uint64
	// Acked counts writes acknowledged to the client (owner + W-1
	// backups applied); Rejected counts writes refused or failed before
	// acknowledgement. Every write is exactly one of the two.
	Acked, Rejected uint64
	// Kills/Revives/Resyncs count whole-instance deaths, rebuilds, and
	// anti-entropy full-state syncs into revived members.
	Kills, Revives, Resyncs uint64
	// SessionMicroreboots counts rung-1 recoveries (one session evicted
	// and replayed in place); ComponentReboots counts rung-2 recoveries;
	// Escalations counts containment failures promoted past rung 2;
	// FullRestarts counts rung-4 in-place image restarts taken when no
	// surviving peer could absorb an instance kill.
	SessionMicroreboots, ComponentReboots, Escalations, FullRestarts uint64
	// GossipRounds / DeltasDelivered account the background anti-entropy
	// traffic the coordinator pumped.
	GossipRounds, DeltasDelivered uint64
}

// Rung identifies one level of the four-rung recovery ladder, smallest
// first. Rungs 1–2 live in internal/core, rung 3 here, rung 4 is core's
// whole-image FullRestart.
type Rung uint8

// The ladder, in escalation order.
const (
	// RungSession: evict one session and replay its log slice while the
	// component keeps serving every other session.
	RungSession Rung = iota + 1
	// RungComponent: reboot the whole component group — checkpoint
	// restore plus encapsulated log replay.
	RungComponent
	// RungInstance: kill the member instance and resync it from peers.
	RungInstance
	// RungRestart: restart the whole image; nothing is restored.
	RungRestart
)

func (r Rung) String() string {
	switch r {
	case RungSession:
		return "session-microreboot"
	case RungComponent:
		return "component-reboot"
	case RungInstance:
		return "instance-kill"
	case RungRestart:
		return "full-restart"
	default:
		return fmt.Sprintf("Rung(%d)", uint8(r))
	}
}

// EscalationRecord reports how Recover resolved a fault.
type EscalationRecord struct {
	Node      int
	Component string
	// Session is the faulted session the caller attributed, "" when the
	// fault was only component-attributable (rung 1 is then skipped).
	Session string
	// Rung is the ladder level that resolved the fault. At RungInstance
	// the member was killed; the caller decides when to ReviveInstance.
	Rung Rung
	// Err is the failure that forced climbing past an earlier rung; nil
	// when the first attempted rung sufficed.
	Err error
}

// ErrNotReplicated reports a write that could not reach a full quorum
// and therefore was NOT acknowledged.
var ErrNotReplicated = errors.New("cluster: write not replicated to quorum")

// Cluster is the coordinator over N member instances.
type Cluster struct {
	cfg   Config
	nodes []*node
	alive []bool
	cut   [][]bool // cut[i][j]: link i->j severed by a partition
	stats Stats
}

// New assembles and boots a cluster. On error, members already running
// are stopped.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.fill()
	if cfg.Nodes < 1 || cfg.Nodes > gossip.MaxClockLen {
		return nil, fmt.Errorf("cluster: node count %d out of range 1..%d", cfg.Nodes, gossip.MaxClockLen)
	}
	if cfg.Replication > cfg.Nodes {
		return nil, fmt.Errorf("cluster: replication %d exceeds %d nodes", cfg.Replication, cfg.Nodes)
	}
	c := &Cluster{
		cfg:   cfg,
		nodes: make([]*node, cfg.Nodes),
		alive: make([]bool, cfg.Nodes),
		cut:   make([][]bool, cfg.Nodes),
	}
	for i := range c.cut {
		c.cut[i] = make([]bool, cfg.Nodes)
	}
	for i := range c.nodes {
		n, err := startNode(i, cfg)
		if err != nil {
			c.Stop()
			return nil, err
		}
		c.nodes[i] = n
		c.alive[i] = true
	}
	return c, nil
}

// Stop tears the cluster down: it kills every live member and releases
// the parked threads of all of them. Read results before calling it.
func (c *Cluster) Stop() {
	for i, n := range c.nodes {
		if n == nil {
			continue
		}
		if c.alive[i] {
			_ = n.kill()
			c.alive[i] = false
		}
		n.inst.Close()
	}
}

// Alive reports whether member id is running.
func (c *Cluster) Alive(id int) bool { return id >= 0 && id < len(c.alive) && c.alive[id] }

// Stats returns a copy of the lifetime accounting.
func (c *Cluster) Stats() Stats { return c.stats }

// NodeVirtual returns member id's virtual clock reading.
func (c *Cluster) NodeVirtual(id int) time.Duration { return c.nodes[id].virtual() }

// fnv1a is the same hash the campaign seeder uses; here it anchors
// per-key ring placement.
func fnv1a(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func (c *Cluster) reachable(i, j int) bool {
	return c.alive[i] && c.alive[j] && !c.cut[i][j]
}

// candidates returns the replica ring for key, in ownership order,
// filtered to members that are alive and reachable from via. The first
// entry is the acting owner — when the home node is dead or cut off,
// ownership fails over to the next candidate, invisibly to the client.
func (c *Cluster) candidates(key string, via int) []int {
	start := int(fnv1a(key) % uint64(c.cfg.Nodes))
	var out []int
	for k := 0; k < c.cfg.Nodes; k++ {
		id := (start + k) % c.cfg.Nodes
		if id == via && c.alive[id] {
			out = append(out, id)
			continue
		}
		if c.reachable(via, id) {
			out = append(out, id)
		}
	}
	return out
}

// validate enforces the line-protocol constraints replication inherits
// from redis — keys are space- and newline-free, values newline-free —
// plus the gossip wire format's u16 key-length bound, which would
// otherwise silently truncate the encoded delta.
func validate(key, val string) error {
	if len(key) > gossip.MaxKeyLen {
		return fmt.Errorf("cluster: key length %d exceeds %d", len(key), gossip.MaxKeyLen)
	}
	if key == "" || strings.ContainsAny(key, " \n") {
		return fmt.Errorf("cluster: invalid key %q", key)
	}
	if strings.Contains(val, "\n") {
		return fmt.Errorf("cluster: invalid value %q", val)
	}
	return nil
}

// execKV runs one redis command inside a member and checks the reply.
func execKV(s *unikernel.Sys, n *node, line, wantPrefix string) error {
	resp := n.kv.Execute(s, line)
	if !strings.HasPrefix(resp, wantPrefix) {
		return fmt.Errorf("cluster: node %d: %q -> %q", n.id, line, strings.TrimSuffix(resp, "\n"))
	}
	return nil
}

// applyEntries installs accepted gossip entries into a member's redis
// store, keeping the app state in step with the replication table.
func applyEntries(s *unikernel.Sys, n *node, entries []gossip.Entry) error {
	for _, e := range entries {
		if e.Deleted {
			if err := execKV(s, n, "DEL "+e.Key, ":"); err != nil {
				return err
			}
		} else {
			if err := execKV(s, n, "SET "+e.Key+" "+string(e.Val), "+OK"); err != nil {
				return err
			}
		}
	}
	return nil
}

// deliver hands a gossip payload from member `from` to member `to`:
// merge into the table, then mirror the accepted winners into redis.
// It returns how many entries the receiver's merge accepted — the
// signal writeVia needs to distinguish "backup applied the write" from
// "backup already holds a newer entry and rejected it".
func (c *Cluster) deliver(to, from int, payload []byte) (int, error) {
	n := c.nodes[to]
	accepted := 0
	err := n.do(func(s *unikernel.Sys) error {
		rets, err := s.Ctx().Call(gossip.Name, "gsp_apply", payload, from)
		if err != nil {
			return err
		}
		acc, err := rets.Bytes(0)
		if err != nil {
			return err
		}
		entries, err := gossip.DecodeEntries(acc)
		if err != nil {
			return err
		}
		accepted = len(entries)
		return applyEntries(s, n, entries)
	})
	return accepted, err
}

// entryOf reads member id's current gossip entry for key.
func (c *Cluster) entryOf(id int, key string) (gossip.Entry, bool, error) {
	var e gossip.Entry
	var ok bool
	err := c.nodes[id].do(func(s *unikernel.Sys) error {
		rets, err := s.Ctx().Call(gossip.Name, "gsp_get", key)
		if err != nil {
			return err
		}
		payload, err := rets.Bytes(0)
		if err != nil {
			return err
		}
		entries, err := gossip.DecodeEntries(payload)
		if err != nil {
			return err
		}
		if len(entries) == 1 {
			e, ok = entries[0], true
		}
		return nil
	})
	return e, ok, err
}

// syncKey pulls `from`'s current entry for key into `to` through the
// normal merge+apply path: the targeted anti-entropy repair writeVia
// runs when a backup proves the owner's clock stale, so the owner's
// very next mint dominates again.
func (c *Cluster) syncKey(to, from int, key string) error {
	e, ok, err := c.entryOf(from, key)
	if err != nil || !ok {
		return err
	}
	_, err = c.deliver(to, from, gossip.EncodeEntries([]gossip.Entry{e}))
	return err
}

// PutVia writes key=val as a client attached to member via. The write
// is acknowledged (nil error) only after the owner and Replication-1
// backups applied it; any other outcome returns an error and the write
// was never acknowledged.
func (c *Cluster) PutVia(via int, key, val string) error {
	c.stats.Puts++
	return c.writeVia(via, key, val, false)
}

func (c *Cluster) writeVia(via int, key, val string, del bool) error {
	if err := validate(key, val); err != nil {
		c.stats.Rejected++
		return err
	}
	if !c.Alive(via) {
		c.stats.Rejected++
		return fmt.Errorf("cluster: via node %d is down", via)
	}
	cands := c.candidates(key, via)
	if len(cands) < c.cfg.Replication {
		c.stats.Rejected++
		return fmt.Errorf("%w: %d of %d replicas reachable from node %d",
			ErrNotReplicated, len(cands), c.cfg.Replication, via)
	}
	owner, backups := cands[0], cands[1:c.cfg.Replication]
	for _, b := range backups {
		if !c.reachable(owner, b) {
			c.stats.Rejected++
			return fmt.Errorf("%w: owner %d cannot reach backup %d", ErrNotReplicated, owner, b)
		}
	}
	on := c.nodes[owner]
	var delta []byte
	err := on.do(func(s *unikernel.Sys) error {
		rets, err := s.Ctx().Call(gossip.Name, "gsp_put", key, []byte(val), del)
		if err != nil {
			return err
		}
		if delta, err = rets.Bytes(0); err != nil {
			return err
		}
		if del {
			return execKV(s, on, "DEL "+key, ":")
		}
		return execKV(s, on, "SET "+key+" "+val, "+OK")
	})
	if err != nil {
		c.stats.Rejected++
		return fmt.Errorf("cluster: owner %d: %w", owner, err)
	}
	for _, b := range backups {
		acc, err := c.deliver(b, owner, delta)
		if err != nil {
			c.stats.Rejected++
			return fmt.Errorf("%w: backup %d: %v", ErrNotReplicated, b, err)
		}
		if acc == 0 {
			// The backup's LWW merge already holds an entry that beats the
			// owner's freshly minted clock: the owner was stale (healed or
			// revived before an anti-entropy round caught it up). The write
			// must NOT be acknowledged — the backup never applied it, and
			// the next gossip round would overwrite the owner's copy with
			// the winning entry. Pull the backup's winner into the owner so
			// an immediate retry mints a dominating clock.
			rej := fmt.Errorf("%w: backup %d rejected stale-clocked delta for %q", ErrNotReplicated, b, key)
			if serr := c.syncKey(owner, b, key); serr != nil {
				rej = fmt.Errorf("%v (owner resync from backup %d: %v)", rej, b, serr)
			}
			c.stats.Rejected++
			return rej
		}
	}
	c.stats.Acked++
	return nil
}

// GetVia reads key as a client attached to member via. The read is a
// quorum read: it compares the entries of the first Replication ring
// candidates reachable from via and returns the Merge winner's value.
// Whenever 2*Replication > Nodes (the default 2-of-3), any read quorum
// intersects any write quorum, so the winner is never older than an
// acknowledged write — read-your-writes holds for acked state even
// immediately after a Heal() or revive, before any gossip round.
// Mirroring the write path, a client on a partitioned minority that
// cannot reach Replication candidates gets an error rather than a
// possibly-stale local answer; GetFrom remains the explicit
// single-replica read.
func (c *Cluster) GetVia(via int, key string) (string, bool, error) {
	c.stats.Gets++
	if !c.Alive(via) {
		return "", false, fmt.Errorf("cluster: via node %d is down", via)
	}
	cands := c.candidates(key, via)
	if len(cands) < c.cfg.Replication {
		return "", false, fmt.Errorf("cluster: only %d of %d replicas of %q reachable from node %d",
			len(cands), c.cfg.Replication, key, via)
	}
	var win gossip.Entry
	found := false
	for _, id := range cands[:c.cfg.Replication] {
		e, ok, err := c.entryOf(id, key)
		if err != nil {
			return "", false, err
		}
		if ok && (!found || gossip.Compare(e, win) > 0) {
			win, found = e, true
		}
	}
	if !found || win.Deleted {
		return "", false, nil
	}
	return string(win.Val), true, nil
}

// GetFrom reads key from one specific member — the durability oracle's
// view of a single replica.
func (c *Cluster) GetFrom(id int, key string) (string, bool, error) {
	var val string
	var ok bool
	n := c.nodes[id]
	err := n.do(func(s *unikernel.Sys) error {
		resp := n.kv.Execute(s, "GET "+key)
		if resp == "$-1\n" {
			return nil
		}
		nl := strings.IndexByte(resp, '\n')
		if !strings.HasPrefix(resp, "$") || nl < 0 {
			return fmt.Errorf("cluster: node %d: GET %q -> %q", id, key, resp)
		}
		size, err := strconv.Atoi(resp[1:nl])
		if err != nil || len(resp) < nl+1+size+1 {
			return fmt.Errorf("cluster: node %d: bad GET reply %q", id, resp)
		}
		val, ok = resp[nl+1:nl+1+size], true
		return nil
	})
	return val, ok, err
}

// GossipRound pumps one anti-entropy round: for every ordered live,
// uncut pair (i, j), drain i's pending deltas for j and deliver them.
// Severed links keep their queues, so healing a partition releases the
// backlog. Returns the number of entries delivered.
func (c *Cluster) GossipRound() (int, error) {
	delivered := 0
	for i := range c.nodes {
		if !c.alive[i] {
			continue
		}
		for j := range c.nodes {
			if i == j || !c.reachable(i, j) {
				continue
			}
			var payload []byte
			var cnt int
			err := c.nodes[i].do(func(s *unikernel.Sys) error {
				rets, err := s.Ctx().Call(gossip.Name, "gsp_drain", j)
				if err != nil {
					return err
				}
				if payload, err = rets.Bytes(0); err != nil {
					return err
				}
				cnt, err = rets.Int(1)
				return err
			})
			if err != nil {
				return delivered, err
			}
			if cnt == 0 {
				continue
			}
			if _, err := c.deliver(j, i, payload); err != nil {
				return delivered, err
			}
			delivered += cnt
		}
	}
	c.stats.GossipRounds++
	c.stats.DeltasDelivered += uint64(delivered)
	return delivered, nil
}

// maxGossipRounds bounds GossipUntilQuiet.
const maxGossipRounds = 64

// GossipUntilQuiet pumps rounds until one delivers nothing (the flood
// converged) or maxGossipRounds is hit. Returns the rounds pumped.
func (c *Cluster) GossipUntilQuiet() (int, error) {
	for r := 1; r <= maxGossipRounds; r++ {
		n, err := c.GossipRound()
		if err != nil {
			return r, err
		}
		if n == 0 {
			return r, nil
		}
	}
	return maxGossipRounds, fmt.Errorf("cluster: gossip not quiet after %d rounds", maxGossipRounds)
}

// Isolate severs every link between member id and the rest: a network
// partition splitting {id} from the majority.
func (c *Cluster) Isolate(id int) {
	for j := range c.nodes {
		if j != id {
			c.cut[id][j] = true
			c.cut[j][id] = true
		}
	}
}

// Heal restores every severed link; queued deltas flow on the next
// gossip round.
func (c *Cluster) Heal() {
	for i := range c.cut {
		for j := range c.cut[i] {
			c.cut[i][j] = false
		}
	}
}

// KillInstance kills member id outright: its redis store, gossip table
// and component state are lost; only the replicas survive.
func (c *Cluster) KillInstance(id int) error {
	if !c.Alive(id) {
		return fmt.Errorf("cluster: node %d already down", id)
	}
	err := c.nodes[id].kill()
	c.alive[id] = false
	c.stats.Kills++
	return err
}

// ReviveInstance rebuilds member id from scratch: fresh instance,
// boot-delay charge, then an anti-entropy full-state sync from the
// first reachable live donor BEFORE the member becomes eligible for
// routing — a revived member must never serve (or mint clocks) from a
// state older than what the cluster acknowledged. When live peers exist
// but none is reachable (revived while still partitioned), the revival
// is refused and the member stays down; the caller retries after the
// partition heals. Only when no peer is alive at all — the acknowledged
// state is gone with the cluster — does the member cold-start empty.
func (c *Cluster) ReviveInstance(id int) error {
	if c.Alive(id) {
		return fmt.Errorf("cluster: node %d still alive", id)
	}
	donor, peers := -1, 0
	for j := range c.nodes {
		if j == id || !c.alive[j] {
			continue
		}
		peers++
		if donor < 0 && !c.cut[id][j] {
			donor = j
		}
	}
	if donor < 0 && peers > 0 {
		return fmt.Errorf("cluster: revive node %d: %d live peers but none reachable for anti-entropy resync", id, peers)
	}
	n, err := startNode(id, c.cfg)
	if err != nil {
		return err
	}
	if err := n.do(func(s *unikernel.Sys) error {
		s.Sleep(unikernel.BootDelay)
		return nil
	}); err != nil {
		n.inst.Close() // the member died while booting
		return err
	}
	c.nodes[id].inst.Close() // the dead incarnation is unreachable from here on
	c.nodes[id] = n
	if donor >= 0 {
		state, err := c.Snapshot(donor)
		if err != nil {
			return fmt.Errorf("cluster: resync donor %d: %w", donor, err)
		}
		if _, err := c.deliver(id, donor, state); err != nil {
			return fmt.Errorf("cluster: resync node %d: %w", id, err)
		}
		c.stats.Resyncs++
	}
	c.alive[id] = true
	c.stats.Revives++
	return nil
}

// RecoverComponent climbs the recovery ladder for a fault that is only
// component-attributable: rung 1 is skipped and recovery starts at the
// component reboot.
func (c *Cluster) RecoverComponent(id int, component string) (EscalationRecord, error) {
	return c.Recover(id, component, "")
}

// Recover climbs the four-rung recovery ladder for a fault on member id
// attributed to component — and, when session is non-empty, to one
// session within it:
//
//	rung 1  session microreboot  evict + replay one session in place
//	rung 2  component reboot     the paper's checkpoint/replay recovery
//	rung 3  instance kill        survivors carry load; caller revives
//	rung 4  full restart         restart the image in place
//
// Each rung runs only when the previous one failed or does not apply:
// rung 1 needs a session attribution (and a member configured with
// core.Config.Microreboot), rung 3 needs a surviving peer to absorb the
// kill. The last live member therefore never kills itself — doing so
// would drop the only copy of the acknowledged state AND leave nobody
// serving — and falls through to rung 4, the paper's baseline.
func (c *Cluster) Recover(id int, component, session string) (EscalationRecord, error) {
	rec := EscalationRecord{Node: id, Component: component, Session: session}
	if !c.Alive(id) {
		return rec, fmt.Errorf("cluster: node %d is down", id)
	}
	if session != "" {
		err := c.nodes[id].do(func(s *unikernel.Sys) error {
			return s.MicrorebootSession(component, session)
		})
		if err == nil {
			rec.Rung = RungSession
			c.stats.SessionMicroreboots++
			return rec, nil
		}
		rec.Err = err
	}
	err := c.nodes[id].do(func(s *unikernel.Sys) error { return s.Reboot(component) })
	if err == nil {
		rec.Rung = RungComponent
		c.stats.ComponentReboots++
		return rec, nil
	}
	rec.Err = err
	c.stats.Escalations++
	live := 0
	for _, a := range c.alive {
		if a {
			live++
		}
	}
	if live > 1 {
		rec.Rung = RungInstance
		if kerr := c.KillInstance(id); kerr != nil && !errors.Is(kerr, err) {
			return rec, kerr
		}
		return rec, nil
	}
	rec.Rung = RungRestart
	c.stats.FullRestarts++
	if ferr := c.nodes[id].do(func(s *unikernel.Sys) error { return s.FullReboot() }); ferr != nil {
		return rec, ferr
	}
	return rec, nil
}

// Snapshot returns member id's canonical replication state: the sorted,
// encoded gossip table. Two members byte-agree iff converged.
func (c *Cluster) Snapshot(id int) ([]byte, error) {
	var state []byte
	err := c.nodes[id].do(func(s *unikernel.Sys) error {
		rets, err := s.Ctx().Call(gossip.Name, "gsp_state")
		if err != nil {
			return err
		}
		state, err = rets.Bytes(0)
		return err
	})
	return state, err
}

// Converged reports whether every live member holds byte-identical
// replication state.
func (c *Cluster) Converged() (bool, error) {
	var ref []byte
	first := true
	for i := range c.nodes {
		if !c.alive[i] {
			continue
		}
		snap, err := c.Snapshot(i)
		if err != nil {
			return false, err
		}
		if first {
			ref, first = snap, false
			continue
		}
		if !bytes.Equal(ref, snap) {
			return false, nil
		}
	}
	return true, nil
}
