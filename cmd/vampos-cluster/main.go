// Command vampos-cluster boots a gossip-replicated cluster of VampOS
// unikernel instances and walks it through the recovery ladder: warm a
// replicated write set, fail one member (a VIRTIO fault escalated to
// whole-instance kill, or a network partition), keep serving through
// the outage, then recover and verify convergence — every surviving
// replica byte-agrees and no acknowledged write is lost.
//
//	vampos-cluster [-fault instancekill|partition]
//
// The walk-through is fixed: three DaS members with write quorum W=2,
// member 1 takes the fault, and 60 client writes run with a background
// gossip round every 8.
//
// Exit status is 1 when a recovery invariant fails, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"vampos/internal/cluster"
	"vampos/internal/core"
)

const (
	nodes       = 3
	replication = 2 // owner + one backup apply before the ack
	victim      = 1 // member that takes the fault
	writes      = 60
	gossipEvery = 8 // background gossip round every N writes
)

func main() {
	faultF := flag.String("fault", "instancekill", "instance-level fault: instancekill (VIRTIO fault escalated to whole-instance kill) or partition")
	flag.Parse()

	if *faultF != "instancekill" && *faultF != "partition" {
		fail(2, fmt.Errorf("unknown fault %q (instancekill, partition)", *faultF))
	}

	c, err := cluster.New(cluster.Config{Nodes: nodes, Replication: replication, Core: core.DaSConfig()})
	if err != nil {
		fail(2, err)
	}
	defer c.Stop()
	fmt.Printf("booted %d members (replication W=%d, das)\n", nodes, replication)

	shadow := map[string]string{}
	put := func(via int, key, val string) {
		if !c.Alive(via) {
			via = (via + 1) % nodes
		}
		if err := c.PutVia(via, key, val); err != nil {
			fmt.Printf("  write %s via node %d refused: %v\n", key, via, err)
		} else {
			shadow[key] = val
		}
	}

	third := writes / 3
	for i := 0; i < third; i++ {
		put(i%nodes, fmt.Sprintf("warm%03d", i), fmt.Sprintf("v%d", i))
		if (i+1)%gossipEvery == 0 {
			mustGossip(c)
		}
	}
	quiet(c)
	fmt.Printf("warm: %d writes acknowledged and converged\n", len(shadow))

	switch *faultF {
	case "instancekill":
		fmt.Printf("injecting VIRTIO fault on node %d ...\n", victim)
		rec, err := c.RecoverComponent(victim, "virtio")
		if err != nil {
			fail(1, err)
		}
		if rec.Rung != cluster.RungInstance {
			fail(1, fmt.Errorf("VIRTIO fault did not escalate: %+v", rec))
		}
		fmt.Printf("  component reboot refused (%v) -> escalated to instance kill\n", rec.Err)
	case "partition":
		fmt.Printf("partitioning node %d from its peers ...\n", victim)
		c.Isolate(victim)
	}

	before := len(shadow)
	for i := 0; i < third; i++ {
		put((victim+1+i)%nodes, fmt.Sprintf("out%03d", i), fmt.Sprintf("v%d", i))
		if (i+1)%gossipEvery == 0 {
			mustGossip(c)
		}
	}
	fmt.Printf("outage: %d of %d writes acknowledged\n", len(shadow)-before, third)

	switch *faultF {
	case "instancekill":
		if err := c.ReviveInstance(victim); err != nil {
			fail(1, err)
		}
		fmt.Printf("revived node %d (boot + anti-entropy resync), virtual clock %v\n",
			victim, c.NodeVirtual(victim))
	case "partition":
		c.Heal()
		fmt.Println("partition healed; queued deltas flow on the next gossip round")
	}

	for i := 0; i < writes-2*third; i++ {
		put((victim+i)%nodes, fmt.Sprintf("post%03d", i), fmt.Sprintf("v%d", i))
	}
	quiet(c)

	conv, err := c.Converged()
	if err != nil {
		fail(1, err)
	}
	keys := make([]string, 0, len(shadow))
	for k := range shadow {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	lost := 0
	for _, k := range keys {
		for id := 0; id < nodes; id++ {
			if !c.Alive(id) {
				continue
			}
			got, ok, err := c.GetFrom(id, k)
			if err != nil || !ok || got != shadow[k] {
				lost++
				fmt.Printf("  LOST: %s on node %d (got %q, present=%v, err=%v)\n", k, id, got, ok, err)
				break
			}
		}
	}
	st := c.Stats()
	fmt.Printf("converged=%v, acked=%d rejected=%d, acked-writes-lost=%d\n", conv, st.Acked, st.Rejected, lost)
	fmt.Printf("stats: kills=%d revives=%d resyncs=%d componentReboots=%d escalations=%d gossipRounds=%d deltas=%d\n",
		st.Kills, st.Revives, st.Resyncs, st.ComponentReboots, st.Escalations, st.GossipRounds, st.DeltasDelivered)
	if !conv || lost > 0 {
		os.Exit(1)
	}
}

func mustGossip(c *cluster.Cluster) {
	if _, err := c.GossipRound(); err != nil {
		fail(1, err)
	}
}

func quiet(c *cluster.Cluster) {
	if _, err := c.GossipUntilQuiet(); err != nil {
		fail(1, err)
	}
}

func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(code)
}
