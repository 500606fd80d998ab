//go:build go1.23

package cluster

import (
	"errors"
	"fmt"
	"iter"
	"time"

	"vampos/internal/apps/redis"
	"vampos/internal/cluster/gossip"
	"vampos/internal/unikernel"
)

// node is one cluster member: a full unikernel instance (redis app,
// VFS/9PFS, LWIP/NETDEV, VIRTIO, plus the gossip component) that the
// coordinator drives as a coroutine. The member's Run executes inside
// an iter.Pull coroutine; its control thread yields once after booting
// the app and once after each command, which hands control straight
// back to the coordinator and freezes the whole instance, virtual clock
// included, at a quiescent point. The member only runs inside next(),
// so at most one simulated world runs at a time, which keeps
// multi-instance trials as deterministic as single-instance ones.
type node struct {
	id   int
	inst *unikernel.Instance
	kv   *redis.App

	next func() (struct{}, bool) // runs the member until it yields or ends
	stop func()                  // makes the control thread's yield return false

	cmd  func(*unikernel.Sys) error // the command next hands the control thread
	res  error                      // its result
	down bool                       // the coroutine has ended
	err  error                      // why it ended; nil after a clean kill
}

// errHalted is the cause of death of a member whose simulation stopped
// on its own before the coordinator killed it (the runtime's
// virtual-time backstop).
var errHalted = errors.New("cluster: member simulation stopped before it was killed")

// startNode assembles member id, hands it to the OnInstance hook, and
// boots it up to its first yield. The redis app runs without its AOF:
// in a cluster, durability comes from replication, and losing the local
// store on instance death is exactly the failure the anti-entropy
// resync must cover.
func startNode(id int, cfg Config) (*node, error) {
	kv := redis.New()
	kv.AOF = false
	inst, err := unikernel.New(kv.Profile(unikernel.Config{Core: cfg.Core}))
	if err != nil {
		return nil, fmt.Errorf("cluster: assemble node %d: %w", id, err)
	}
	if err := inst.Runtime().Register(gossip.New(id, cfg.Nodes)); err != nil {
		return nil, fmt.Errorf("cluster: register gossip on node %d: %w", id, err)
	}
	if cfg.OnInstance != nil {
		cfg.OnInstance(id, inst)
	}
	n := &node{id: id, inst: inst, kv: kv}
	n.next, n.stop = iter.Pull(n.run)
	if _, ok := n.next(); !ok {
		n.down = true
		inst.Close()
		return nil, fmt.Errorf("cluster: boot node %d: %w", id, n.err)
	}
	return n, nil
}

// run is the coroutine body: the member's whole simulation. Its control
// thread boots the app, then yields and executes one command per
// resume until yield reports the kill.
func (n *node) run(yield func(struct{}) bool) {
	killed := false
	err := n.inst.Run(func(s *unikernel.Sys) {
		defer s.Stop()
		if n.err = s.StartApp(n.kv); n.err != nil {
			return
		}
		for yield(struct{}{}) {
			n.res = n.cmd(s)
		}
		killed = true
	})
	switch {
	case err != nil:
		n.err = err
	case n.err == nil && !killed:
		n.err = errHalted
	}
}

// do runs one command inside the member's simulation and returns its
// result, or the cause of death when the member died before or during
// it.
func (n *node) do(cmd func(*unikernel.Sys) error) error {
	if n.down {
		return fmt.Errorf("cluster: node %d is down: %w", n.id, n.err)
	}
	n.cmd = cmd
	if _, ok := n.next(); !ok {
		n.down = true
		return fmt.Errorf("cluster: node %d died mid-command: %w", n.id, n.err)
	}
	return n.res
}

// kill simulates whole-instance death: the control thread's yield
// returns false, it unwinds, the simulation stops, and all in-instance
// state — redis store, gossip table, component logs — is gone for good.
// It returns nil for a clean kill, else the cause of death.
func (n *node) kill() error {
	n.stop()
	n.down = true
	return n.err
}

// virtual reads the member's virtual clock: through the simulation for
// a live member, directly off the quiescent runtime clock for a dead
// one.
func (n *node) virtual() time.Duration {
	var d time.Duration
	if err := n.do(func(s *unikernel.Sys) error { d = s.Elapsed(); return nil }); err != nil {
		return n.inst.Runtime().Clock().Elapsed()
	}
	return d
}
