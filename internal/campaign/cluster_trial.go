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

// clusterRun is a cluster trial's cluster, victim and acknowledged-write
// ledger: what a cluster kind strikes through.
type clusterRun struct {
	t         *trial
	c         *cluster.Cluster
	victim    int
	survivors []int
	shadow    map[string]string // every acknowledged write
	ackErrs   int               // writes that had to ack but did not
}

func (r *clusterRun) put(via int, key, val string) error {
	err := r.c.PutVia(via, key, val)
	if err == nil {
		r.shadow[key] = val
	}
	return err
}

func (r *clusterRun) mustPut(via int, key, val string) {
	if err := r.put(via, key, val); err != nil {
		r.ackErrs++
	}
}

func (r *clusterRun) val(i int) string { return fmt.Sprintf("v%d-%04x", i, (r.t.seed>>8)&0xffff) }

// lost names an acknowledged write that a live member — a revived victim
// included, whose local state died with the instance — does not hold
// with its exact value, or is empty.
func (r *clusterRun) lost() string {
	keys := make([]string, 0, len(r.shadow))
	for k := range r.shadow {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for id := 0; id < clusterNodes; id++ {
			if !r.c.Alive(id) {
				continue
			}
			if got, ok, err := r.c.GetFrom(id, k); err != nil || !ok || got != r.shadow[k] {
				return fmt.Sprintf("node %d: %q = %q (present=%v, err=%v), want %q", id, k, got, ok, err, r.shadow[k])
			}
		}
	}
	return ""
}

// clusterKind is a fault kind of the cluster plane: what it does to the
// victim member between the warm writes and the reconvergence, and the
// oracles of that outage.
type clusterKind interface {
	faultKind
	strike(r *clusterRun, j *judgement) error
}

// instanceKill is a VIRTIO failure on the victim: the paper's
// unrebootable component. The first rung (component reboot) must refuse,
// and the ladder must escalate to instance kill, failover, and
// reboot-and-resync from the survivors.
type instanceKill struct{ baseKind }

func (instanceKill) strike(r *clusterRun, j *judgement) error {
	c, victim := r.c, r.victim
	esc, err := c.RecoverComponent(victim, "virtio")
	j.check("escalation", err == nil && esc.Rung == cluster.RungInstance && errors.Is(esc.Err, core.ErrUnrebootable) && !c.Alive(victim),
		"want component reboot refused (ErrUnrebootable) then instance kill; got rec=%+v err=%v alive=%v",
		esc, err, c.Alive(victim))
	// Failover: with one member dead, every write still finds a quorum
	// among the survivors and must acknowledge.
	for i := 0; i < clusterOutageKeys; i++ {
		r.mustPut(r.survivors[(i+r.t.after)%len(r.survivors)], fmt.Sprintf("out%02d", i), r.val(100+i))
	}
	j.check("failover", r.ackErrs == 0, "%d writes failed to ack during the outage", r.ackErrs)
	// Second rung completes: reboot the instance and resync it from the
	// survivors before it serves again.
	if err := c.ReviveInstance(victim); err != nil {
		return fmt.Errorf("revive: %w", err)
	}
	for i := 0; i < clusterPostKeys; i++ {
		r.mustPut((victim+i)%clusterNodes, fmt.Sprintf("post%02d", i), r.val(200+i))
	}
	return nil
}

// partition cuts the victim off from its peers: the majority must keep
// acknowledging writes, the minority must refuse them, and the heal must
// reconverge every replica to one state.
type partition struct{ baseKind }

func (partition) strike(r *clusterRun, j *judgement) error {
	r.c.Isolate(r.victim)
	// Majority side: quorum intact, every write acknowledges.
	for i := 0; i < clusterOutageKeys; i++ {
		r.mustPut(r.survivors[(i+r.t.after)%len(r.survivors)], fmt.Sprintf("maj%02d", i), r.val(100+i))
	}
	j.check("failover", r.ackErrs == 0, "%d majority writes failed to ack", r.ackErrs)
	// Minority side: no quorum, every write must be refused — an
	// acknowledged-then-lost write is exactly what the oracle forbids.
	minorityAcked := 0
	for i := 0; i < clusterPostKeys; i++ {
		if r.put(r.victim, fmt.Sprintf("min%02d", i), r.val(200+i)) == nil {
			minorityAcked++
		}
	}
	j.check("partition-safety", minorityAcked == 0,
		"%d writes acknowledged by the partitioned minority", minorityAcked)
	r.c.Heal()
	return nil
}

// runCluster is the cluster plane's boot and phases: boot a cluster,
// acknowledge a warm write set, let the kind strike the victim member and
// keep serving through the outage, recover, and judge with the
// convergence oracle — surviving replicas byte-agree, zero acknowledged
// writes lost, partitions heal to a single state. The coordinator
// serialises all member execution, so the trial is exactly as
// deterministic as a single-instance one.
func (t *trial) runCluster(cc core.Config, fk faultKind, res *CellResult, j *judgement) error {
	k := fk.(clusterKind) // TestFaultRowsMatchTheirPlane
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

	r := &clusterRun{t: t, c: c, victim: victim, shadow: map[string]string{}}
	for i := 0; i < clusterWarmKeys; i++ {
		r.mustPut((i+t.after)%clusterNodes, fmt.Sprintf("warm%02d", i), r.val(i))
	}
	if _, err := c.GossipUntilQuiet(); err != nil {
		return fmt.Errorf("warm gossip: %w", err)
	}
	for id := 0; id < clusterNodes; id++ {
		if id != victim {
			r.survivors = append(r.survivors, id)
		}
	}
	if err := k.strike(r, j); err != nil {
		return err
	}

	// Reconverge and judge.
	if _, err := c.GossipUntilQuiet(); err != nil {
		j.check("convergence", false, "gossip did not go quiet: %v", err)
	} else {
		conv, err := c.Converged()
		j.check("convergence", err == nil && conv, "replicas disagree after recovery (err=%v)", err)
	}

	lost := r.lost()
	j.check("durability", lost == "", "acknowledged write lost: %s", lost)

	st := c.Stats()
	j.check("service", r.ackErrs == 0, "%d quorum-reachable writes failed to ack (stats %+v)", r.ackErrs, st)

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
