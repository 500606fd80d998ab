package bench

import (
	"fmt"
	"sort"
	"time"

	"vampos/internal/cluster"
)

// ClusterArm identifies one replication strategy of the availability
// figure.
type ClusterArm string

// The two arms of the cluster figure.
const (
	// ClusterSync acknowledges a write only after the owner plus one
	// backup applied it (W=2): the zero-loss arm.
	ClusterSync ClusterArm = "sync-quorum"
	// ClusterAsync acknowledges at the owner alone (W=1) and relies on
	// background gossip: faster acks, but an instance kill eats the
	// un-gossiped tail of acknowledged writes.
	ClusterAsync ClusterArm = "async-gossip"
)

// ClusterRow is one arm's outcome across a kill/revive cycle.
type ClusterRow struct {
	Arm         ClusterArm
	Replication int
	Writes      int
	Acked       int
	Rejected    int
	// OutageAcked counts writes acknowledged while the victim was dead:
	// the client-visible failover capacity.
	OutageAcked int
	// AckedLost counts acknowledged writes missing from the converged
	// cluster state — the figure's headline number (sync must be 0).
	AckedLost int
	// ReconvergeRounds / ReconvergeVirtual measure the revived member's
	// time-to-reconverge: gossip rounds until quiet after the revive,
	// and the victim's virtual clock (boot + resync + catch-up) when the
	// cluster is whole again.
	ReconvergeRounds  int
	ReconvergeVirtual time.Duration
	Converged         bool
	DeltasDelivered   uint64
	GossipRounds      uint64
	Virtual           time.Duration // max member virtual time at the end
}

// clusterNodes is the availability figure's member count.
const clusterNodes = 3

// ClusterResult is the availability figure: N replicated members serve
// a write stream through a whole-instance kill and revival, under
// synchronous-quorum and asynchronous-gossip replication.
type ClusterResult struct {
	Nodes    int
	KillAt   int
	ReviveAt int
	Victim   int
	Rows     []ClusterRow
}

// RunCluster measures both replication arms against the same outage
// script: write ClusterWrites keys through rotating members with a
// background gossip round every ClusterGossipEvery writes, kill member
// Victim at write ClusterKillAt, revive and resync it at
// ClusterReviveAt, then converge and audit every acknowledged write
// against the surviving state.
func RunCluster(scale Scale) (*ClusterResult, error) {
	res := &ClusterResult{
		Nodes:    clusterNodes,
		KillAt:   scale.ClusterKillAt,
		ReviveAt: scale.ClusterReviveAt,
		Victim:   1,
	}
	arms := []struct {
		name ClusterArm
		w    int
	}{
		{ClusterSync, 2},
		{ClusterAsync, 1},
	}
	for _, arm := range arms {
		row, err := runClusterArm(scale, arm.name, arm.w, res.Victim)
		if err != nil {
			return nil, fmt.Errorf("cluster arm %s: %w", arm.name, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func runClusterArm(scale Scale, arm ClusterArm, w, victim int) (ClusterRow, error) {
	row := ClusterRow{Arm: arm, Replication: w, Writes: scale.ClusterWrites}
	cc := CoreConfig(DaS)
	cc.MaxVirtualTime = 12 * time.Hour
	c, err := cluster.New(cluster.Config{Nodes: clusterNodes, Replication: w, Core: cc})
	if err != nil {
		return row, err
	}
	defer c.Stop()

	shadow := map[string]string{}
	via := func(i int) int {
		for k := 0; k < clusterNodes; k++ {
			id := (i + k) % clusterNodes
			if c.Alive(id) {
				return id
			}
		}
		return 0
	}
	for i := 0; i < scale.ClusterWrites; i++ {
		if i == scale.ClusterKillAt {
			if err := c.KillInstance(victim); err != nil {
				return row, err
			}
		}
		if i == scale.ClusterReviveAt {
			if err := c.ReviveInstance(victim); err != nil {
				return row, err
			}
			rounds, err := c.GossipUntilQuiet()
			if err != nil {
				return row, err
			}
			row.ReconvergeRounds = rounds
			row.ReconvergeVirtual = c.NodeVirtual(victim)
		}
		key := fmt.Sprintf("k%04d", i)
		val := fmt.Sprintf("v%04d", i)
		if err := c.PutVia(via(i), key, val); err == nil {
			shadow[key] = val
			if !c.Alive(victim) {
				row.OutageAcked++
			}
		}
		if (i+1)%scale.ClusterGossipEvery == 0 {
			if _, err := c.GossipRound(); err != nil {
				return row, err
			}
		}
	}
	if _, err := c.GossipUntilQuiet(); err != nil {
		return row, err
	}
	conv, err := c.Converged()
	if err != nil {
		return row, err
	}
	row.Converged = conv

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
			if err != nil {
				return row, err
			}
			if !ok || got != shadow[k] {
				row.AckedLost++
				break
			}
		}
	}

	st := c.Stats()
	row.Acked = int(st.Acked)
	row.Rejected = int(st.Rejected)
	row.DeltasDelivered = st.DeltasDelivered
	row.GossipRounds = st.GossipRounds
	for id := 0; id < clusterNodes; id++ {
		if v := c.NodeVirtual(id); v > row.Virtual {
			row.Virtual = v
		}
	}
	return row, nil
}

// Render draws the availability figure.
func (r *ClusterResult) Render() string {
	t := &table{
		title: fmt.Sprintf("Cluster availability — %d members, kill node %d at write %d, revive at %d",
			r.Nodes, r.Victim, r.KillAt, r.ReviveAt),
		headers: []string{"arm", "W", "writes", "acked", "rejected", "outage acked", "acked lost", "reconverge", "rounds", "deltas", "converged"},
	}
	for _, row := range r.Rows {
		t.addRow(
			string(row.Arm),
			fmt.Sprintf("%d", row.Replication),
			fmt.Sprintf("%d", row.Writes),
			fmt.Sprintf("%d", row.Acked),
			fmt.Sprintf("%d", row.Rejected),
			fmt.Sprintf("%d", row.OutageAcked),
			fmt.Sprintf("%d", row.AckedLost),
			row.ReconvergeVirtual.Round(time.Microsecond).String(),
			fmt.Sprintf("%d", row.ReconvergeRounds),
			fmt.Sprintf("%d", row.DeltasDelivered),
			fmt.Sprintf("%v", row.Converged),
		)
	}
	t.addNote("sync-quorum: a write acks only after owner + backup applied it — an instance kill loses zero acknowledged writes")
	t.addNote("async-gossip: acks at the owner alone — the kill eats the un-gossiped tail of acknowledged writes")
	t.addNote("reconverge: the revived member's virtual clock (boot + anti-entropy resync + gossip catch-up) when replicas byte-agree again")
	return t.String()
}
