// Package vampos is a Go reproduction of "Reboot-Based Recovery of
// Unikernels at the Component Level" (Wada & Yamada, DSN 2024): a
// unikernel model whose OS components — VFS, a 9P file system, a TCP/IP
// stack, virtio drivers, and the small POSIX utility components —
// interact by message passing so that a failed or aged component can be
// rebooted alone, restored from a post-init checkpoint plus an
// encapsulated replay of its call log, while the application and the
// other components keep running.
//
// The package is the small public facade that examples/quickstart,
// cmd/vampos-demo and the README use:
//
//   - New / Config / Instance / Sys: assemble and drive a unikernel
//     (internal/unikernel); DaSConfig is the default VampOS runtime.
//   - FaultSpec / FaultCrash / NewInjector: fail-stop crash injection
//     (§II-B fault model) and leak injection (the software-aging
//     motivation).
//   - AgingPolicy / CkptPolicy / DefensePolicy: adaptive rejuvenation,
//     incremental checkpoints and the active-defense pipeline.
//   - TraceRecorder / WriteChromeTrace: the flight recorder and its
//     Chrome trace-event export.
//   - NewCluster / ClusterConfig / Cluster: gossip-replicated instances
//     (internal/cluster).
//
// Everything else lives in the internal packages: the paper's other
// configurations (internal/core), the §VI applications
// (internal/apps/...), the table and figure runners (internal/bench,
// cmd/vampos-bench) and the fault-injection campaign (internal/campaign,
// cmd/vampos-campaign).
//
// Quickstart:
//
//	inst, err := vampos.New(vampos.Config{Core: vampos.DaSConfig(), FS: true, Net: true, Sysinfo: true})
//	if err != nil { ... }
//	err = inst.Run(func(s *vampos.Sys) {
//		defer s.Stop()
//		fd, _ := s.Open("/hello.txt", vampos.OCreate|vampos.ORdwr)
//		s.Write(fd, []byte("hi"))
//		s.Reboot("vfs") // component-level reboot; the fd survives
//		data, _ := s.Pread(fd, 2, 0)
//		fmt.Println(string(data))
//	})
package vampos

import (
	"io"

	"vampos/internal/aging"
	"vampos/internal/ckpt"
	"vampos/internal/cluster"
	"vampos/internal/core"
	"vampos/internal/defense"
	"vampos/internal/faults"
	"vampos/internal/trace"
	"vampos/internal/unikernel"
)

// Core runtime types.
type (
	// Instance is one assembled unikernel plus its host-side world.
	Instance = unikernel.Instance
	// Sys is the system-call surface application threads use.
	Sys = unikernel.Sys
	// Config selects components and runtime behaviour for an instance.
	Config = unikernel.Config
	// Runtime exposes stats, reboot records and fault arming.
	Runtime = core.Runtime
	// Injector injects allocator leaks.
	Injector = faults.Injector
	// FaultSpec arms a fault with a trigger ordinal and optional errno
	// (Runtime.ArmFaultSpec).
	FaultSpec = core.FaultSpec
	// AgingPolicy configures the adaptive rejuvenation controller:
	// sample period, leak-slope threshold and cooldown (Config.Core.Aging).
	AgingPolicy = aging.Policy
	// CkptPolicy names an incremental quiescent-point checkpoint cadence
	// (Config.Core.Ckpt). The zero policy is the paper's behaviour: one
	// post-init checkpoint, full-log replay.
	CkptPolicy = ckpt.Policy
	// DefensePolicy configures the pipeline detect -> watermark ->
	// taint-aware rollback -> re-randomize (Config.Core.Defense).
	DefensePolicy = defense.Policy
	// TraceRecorder is the bounded in-memory flight recorder
	// (Instance.NewTracer).
	TraceRecorder = trace.Recorder
)

// FaultCrash is the fail-stop fault kind (§II-B fault model).
const FaultCrash = core.FaultCrash

// File open flags (Linux numeric convention).
const (
	ORdwr   = unikernel.ORdwr
	OCreate = unikernel.OCreate
)

// ErrMicrorebootEscalated reports a session microreboot that could not
// stay at rung 1 (unattributable session, eviction refused, or replay
// divergence) and escalated to a successful component reboot.
var ErrMicrorebootEscalated = core.ErrMicrorebootEscalated

// New assembles an instance from a configuration.
func New(cfg Config) (*Instance, error) { return unikernel.New(cfg) }

// DaSConfig is the default VampOS configuration: message-passing
// components under dependency-aware scheduling (§VII-A).
func DaSConfig() core.Config { return core.DaSConfig() }

// NewInjector creates a fault injector for an instance's runtime.
func NewInjector(rt *Runtime) *Injector { return faults.NewInjector(rt) }

// WriteChromeTrace merges recorders into one Chrome trace-event JSON
// document, loadable at ui.perfetto.dev or chrome://tracing.
func WriteChromeTrace(w io.Writer, recs ...*TraceRecorder) error {
	return trace.WriteChrome(w, recs...)
}

// Multi-instance clustering (internal/cluster): N unikernel instances
// in one process replicate the Redis KVS with per-key vector clocks and
// delta gossip, so the system as a whole survives failures the
// component-reboot ladder cannot absorb — an unrebootable VIRTIO fault
// escalates to killing and resyncing the whole member instance.
type (
	// Cluster coordinates the member instances: quorum-replicated
	// writes, background gossip, partitions, instance kill/revive and
	// the component-reboot -> instance-reboot escalation ladder.
	Cluster = cluster.Cluster
	// ClusterConfig sizes the cluster (members, write quorum W, core
	// configuration, per-member hook).
	ClusterConfig = cluster.Config
)

// NewCluster boots a gossip-replicated cluster of unikernel instances.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }
