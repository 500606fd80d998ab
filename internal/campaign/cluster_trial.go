package campaign

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"vampos/internal/cluster"
	"vampos/internal/core"
	"vampos/internal/trace"
	"vampos/internal/unikernel"
)

// Cluster trial shape. Small enough that a cell stays in the same
// real-time budget as a single-instance trial, large enough that every
// member owns keys and the gossip flood has work to do.
const (
	clusterNodes       = 3
	clusterReplication = 2
	clusterWarmKeys    = 12
	clusterOutageKeys  = 6
	clusterPostKeys    = 4
)

// runCluster is the boot and phases of the two cluster kinds: boot a
// cluster, acknowledge a warm write set, inflict the instance-level fault
// on the victim member, keep serving through the outage, recover, and
// judge with the convergence oracle — surviving replicas byte-agree, zero
// acknowledged writes lost, partitions heal to a single state. The
// coordinator serialises all member execution, so the trial is exactly
// as deterministic as a single-instance one.
func (t *trial) runCluster(cc core.Config, res *CellResult, j *judgement) error {
	victim, err := clusterVictim(t.cell.Component)
	if err != nil {
		return err
	}
	c, err := cluster.New(cluster.Config{
		Nodes:       clusterNodes,
		Replication: clusterReplication,
		Core:        cc,
		OnInstance: func(id int, inst *unikernel.Instance) {
			// Record the victim's first life: the pre-fault instance whose
			// death the trial is about.
			if id == victim && res.recorder == nil {
				res.recorder = inst.NewTracer("campaign/"+t.cell.ID(), trace.WithCapacity(1<<14))
			}
		},
	})
	if err != nil {
		return err
	}
	defer c.Stop()

	shadow := map[string]string{} // every acknowledged write
	ackErrs := 0                  // writes that had to ack but did not
	put := func(via int, key, val string) error {
		err := c.PutVia(via, key, val)
		if err == nil {
			shadow[key] = val
		}
		return err
	}
	mustPut := func(via int, key, val string) {
		if err := put(via, key, val); err != nil {
			ackErrs++
		}
	}
	valFor := func(i int) string { return fmt.Sprintf("v%d-%04x", i, (t.seed>>8)&0xffff) }

	for i := 0; i < clusterWarmKeys; i++ {
		mustPut((i+t.after)%clusterNodes, fmt.Sprintf("warm%02d", i), valFor(i))
	}
	if _, err := c.GossipUntilQuiet(); err != nil {
		return fmt.Errorf("warm gossip: %w", err)
	}

	survivors := make([]int, 0, clusterNodes-1)
	for id := 0; id < clusterNodes; id++ {
		if id != victim {
			survivors = append(survivors, id)
		}
	}

	switch t.cell.Fault {
	case FaultInstanceKill:
		// The fault is a VIRTIO failure on the victim: the paper's
		// unrebootable component. The first rung (component reboot) must
		// refuse, and the ladder must escalate to instance kill.
		esc, err := c.RecoverComponent(victim, "virtio")
		j.check("escalation", err == nil && esc.Rung == cluster.RungInstance && errors.Is(esc.Err, core.ErrUnrebootable) && !c.Alive(victim),
			"want component reboot refused (ErrUnrebootable) then instance kill; got rec=%+v err=%v alive=%v",
			esc, err, c.Alive(victim))
		// Failover: with one member dead, every write still finds a
		// quorum among the survivors and must acknowledge.
		for i := 0; i < clusterOutageKeys; i++ {
			mustPut(survivors[(i+t.after)%len(survivors)], fmt.Sprintf("out%02d", i), valFor(100+i))
		}
		j.check("failover", ackErrs == 0, "%d writes failed to ack during the outage", ackErrs)
		// Second rung completes: reboot the instance and resync it from
		// the survivors before it serves again.
		if err := c.ReviveInstance(victim); err != nil {
			return fmt.Errorf("revive: %w", err)
		}
		for i := 0; i < clusterPostKeys; i++ {
			mustPut((victim+i)%clusterNodes, fmt.Sprintf("post%02d", i), valFor(200+i))
		}

	case FaultPartition:
		c.Isolate(victim)
		// Majority side: quorum intact, every write acknowledges.
		for i := 0; i < clusterOutageKeys; i++ {
			mustPut(survivors[(i+t.after)%len(survivors)], fmt.Sprintf("maj%02d", i), valFor(100+i))
		}
		j.check("failover", ackErrs == 0, "%d majority writes failed to ack", ackErrs)
		// Minority side: no quorum, every write must be refused — an
		// acknowledged-then-lost write is exactly what the oracle forbids.
		minorityAcked := 0
		for i := 0; i < clusterPostKeys; i++ {
			if put(victim, fmt.Sprintf("min%02d", i), valFor(200+i)) == nil {
				minorityAcked++
			}
		}
		j.check("partition-safety", minorityAcked == 0,
			"%d writes acknowledged by the partitioned minority", minorityAcked)
		c.Heal()

	default:
		return fmt.Errorf("campaign: fault %q is not a cluster fault", t.cell.Fault)
	}

	// Reconverge and judge.
	if _, err := c.GossipUntilQuiet(); err != nil {
		j.check("convergence", false, "gossip did not go quiet: %v", err)
	} else {
		conv, err := c.Converged()
		j.check("convergence", err == nil && conv, "replicas disagree after recovery (err=%v)", err)
	}

	// Durability: every acknowledged write is present with its exact
	// value on every live member — including a revived victim, whose
	// local state died with the instance.
	durable := true
	detail := ""
	keys := make([]string, 0, len(shadow))
	for k := range shadow {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for id := 0; id < clusterNodes; id++ {
			if !c.Alive(id) {
				continue
			}
			got, ok, err := c.GetFrom(id, k)
			if err != nil || !ok || got != shadow[k] {
				durable = false
				detail = fmt.Sprintf("node %d: %q = %q (present=%v, err=%v), want %q", id, k, got, ok, err, shadow[k])
				break
			}
		}
		if !durable {
			break
		}
	}
	j.check("durability", durable, "acknowledged write lost: %s", detail)

	st := c.Stats()
	j.check("service", ackErrs == 0, "%d quorum-reachable writes failed to ack (stats %+v)", ackErrs, st)

	res.Reboots = int(st.ComponentReboots + st.Revives)
	res.ClientErrs = int(st.Rejected)
	for id := 0; id < clusterNodes; id++ {
		res.Virtual = max(res.Virtual, c.NodeVirtual(id))
	}
	return nil
}

// clusterVictim parses the victim ordinal out of a "nodeK" component.
func clusterVictim(component string) (int, error) {
	s, ok := strings.CutPrefix(component, "node")
	if !ok {
		return 0, fmt.Errorf("campaign: cluster component %q is not nodeK", component)
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 || v >= clusterNodes {
		return 0, fmt.Errorf("campaign: cluster victim %q out of range 0..%d", component, clusterNodes-1)
	}
	return v, nil
}
