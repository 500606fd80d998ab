// Package vampos is a Go reproduction of "Reboot-Based Recovery of
// Unikernels at the Component Level" (Wada & Yamada, DSN 2024): a
// unikernel model whose OS components — VFS, a 9P file system, a TCP/IP
// stack, virtio drivers, and the small POSIX utility components —
// interact by message passing so that a failed or aged component can be
// rebooted alone, restored from a post-init checkpoint plus an
// encapsulated replay of its call log, while the application and the
// other components keep running.
//
// The package is a facade over the internal implementation:
//
//   - Instance / Sys / App: assemble and drive a unikernel (see
//     internal/unikernel).
//   - Vanilla/Noop/DaS/FSm/NETm configs: the paper's five experimental
//     configurations (§VII-A).
//   - Runtime.ArmFault / Injector: fail-stop crash and hang injection
//     (§II-B fault model), and leak injection (the software-aging
//     motivation).
//   - The apps sub-packages (internal/apps/...): SQLite-, Nginx-, Redis-
//     and Echo-analogue applications from §VI.
//   - internal/bench: runners that regenerate every table and figure of
//     the paper's evaluation; cmd/vampos-bench prints them.
//   - internal/campaign: a SWIFI-style fault-injection campaign engine
//     that sweeps component × fault × workload × configuration and
//     judges each trial with recovery oracles; cmd/vampos-campaign
//     drives it and prints the recovery matrix.
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
	"vampos/internal/campaign"
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
	// App is an application linked against the unikernel.
	App = unikernel.App
	// Config selects components and runtime behaviour for an instance.
	Config = unikernel.Config
	// CoreConfig is the VampOS runtime configuration.
	CoreConfig = core.Config
	// Runtime exposes stats, reboot records and fault arming.
	Runtime = core.Runtime
	// Injector injects allocator leaks.
	Injector = faults.Injector
	// Errno is the POSIX-flavoured error type used across components.
	Errno = core.Errno
	// FaultKind selects an injected failure mode.
	FaultKind = core.FaultKind
	// FaultSpec arms a fault with a trigger ordinal and optional errno
	// (Runtime.ArmFaultSpec).
	FaultSpec = core.FaultSpec
	// Rejuvenator drives periodic proactive component reboots (§VII-D).
	Rejuvenator = core.Rejuvenator
	// AgingDriver is the adaptive rejuvenation controller: it samples
	// each component's heap at quiescent points on the virtual clock and
	// reboots only the components whose leak slope crossed the policy
	// threshold (CoreConfig.Aging, Runtime.NewAgingDriver).
	AgingDriver = core.AgingDriver
	// AgingPolicy configures the adaptive controller: sample period,
	// leak-slope threshold and cooldown (internal/aging).
	AgingPolicy = aging.Policy
	// AgingStats is one monitored component's rejuvenation accounting
	// (Runtime.AgingStats).
	AgingStats = aging.Stats
	// CkptPolicy names an incremental quiescent-point checkpoint cadence
	// (CoreConfig.Ckpt). The zero policy is the
	// paper's behaviour: one post-init checkpoint, full-log replay.
	CkptPolicy = ckpt.Policy
	// CkptStats is one component's lifetime checkpoint accounting
	// (ComponentStats.Ckpt, Runtime.CheckpointStats).
	CkptStats = ckpt.Stats
)

// Injectable fault kinds (§II-B fault model).
const (
	FaultCrash = core.FaultCrash
	FaultHang  = core.FaultHang
	// FaultErrno makes the fault site return a transient errno once
	// instead of failing the component.
	FaultErrno = core.FaultErrno
)

// AnyFunction arms a fault on a component's next invocation regardless
// of which exported function is called.
const AnyFunction = core.AnyFunction

// Observability: the flight recorder (internal/trace) records syscalls,
// cross-component hops and reboot lifecycles with causal span links.
// Attach one with Instance.NewTracer before Run, then export it here.
type (
	// TraceRecorder is the bounded in-memory flight recorder.
	TraceRecorder = trace.Recorder
	// TraceOption configures a recorder (capacity, dispatch capture).
	TraceOption = trace.Option
	// TraceEvent is one recorded span or instant.
	TraceEvent = trace.Event
)

// WriteChromeTrace merges recorders into one Chrome trace-event JSON
// document, loadable at ui.perfetto.dev or chrome://tracing.
func WriteChromeTrace(w io.Writer, recs ...*TraceRecorder) error {
	return trace.WriteChrome(w, recs...)
}

// WriteTextTrace renders recorders as an indented text timeline with
// per-component-pair hop-latency histograms.
func WriteTextTrace(w io.Writer, recs ...*TraceRecorder) error {
	return trace.WriteText(w, recs...)
}

// New assembles an instance from a configuration.
func New(cfg Config) (*Instance, error) { return unikernel.New(cfg) }

// NewInjector creates a fault injector for an instance's runtime.
func NewInjector(rt *Runtime) *Injector { return faults.NewInjector(rt) }

// The five experimental configurations of the paper (§VII-A).
var (
	// VanillaConfig models unmodified Unikraft: direct function calls,
	// no logging, no isolation, whole-image reboots only.
	VanillaConfig = core.VanillaConfig
	// NoopConfig is message passing under round-robin scheduling.
	NoopConfig = core.NoopConfig
	// DaSConfig adds dependency-aware scheduling (the default VampOS).
	DaSConfig = core.DaSConfig
	// FSmConfig merges the file-system components VFS and 9PFS.
	FSmConfig = core.FSmConfig
	// NETmConfig merges the network components LWIP and NETDEV.
	NETmConfig = core.NETmConfig
	// DefaultAgingPolicy is the enabled adaptive-rejuvenation policy with
	// every field at its default.
	DefaultAgingPolicy = aging.DefaultPolicy
)

// File open flags and whence values (Linux numeric convention).
const (
	ORdonly = unikernel.ORdonly
	OWronly = unikernel.OWronly
	ORdwr   = unikernel.ORdwr
	OCreate = unikernel.OCreate
	OTrunc  = unikernel.OTrunc
	OAppend = unikernel.OAppend

	SeekSet = unikernel.SeekSet
	SeekCur = unikernel.SeekCur
	SeekEnd = unikernel.SeekEnd
)

// Common errnos.
const (
	EAGAIN     = core.EAGAIN
	EBADF      = core.EBADF
	ENOENT     = core.ENOENT
	EEXIST     = core.EEXIST
	EINVAL     = core.EINVAL
	EPIPE      = core.EPIPE
	ECONNRESET = core.ECONNRESET
)

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
	// configuration, boot delay, gossip round cap).
	ClusterConfig = cluster.Config
	// ClusterStats is the cluster-wide recovery and replication
	// accounting (Cluster.Stats).
	ClusterStats = cluster.Stats
	// ClusterEscalation records one walk up the escalation ladder: a
	// component reboot that either succeeded or escalated to an
	// instance kill (Cluster.RecoverComponent).
	ClusterEscalation = cluster.EscalationRecord
)

// NewCluster boots a gossip-replicated cluster of unikernel instances.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// Session microreboots: when a fault is attributable to one session —
// one fd, socket or fid — rung 1 of the recovery ladder evicts just that
// session's state from the live component and replays its surviving log
// slice in place, while every other session keeps serving. The
// restoration log is the only record of a session: rung 1 applies while
// the log holds the session's live opener (Runtime.SessionLive). Enable
// with CoreConfig.Microreboot; trigger proactively with
// Sys.MicrorebootSession.
type (
	// MicrorebootRecord is one completed session microreboot
	// (Runtime.Microreboots).
	MicrorebootRecord = core.MicrorebootRecord
	// RecoveryRung identifies one level of the four-rung ladder: session
	// microreboot, component reboot, instance kill, full restart.
	RecoveryRung = cluster.Rung
)

// The four rungs of the recovery ladder, smallest blast radius first.
const (
	RungSession   = cluster.RungSession
	RungComponent = cluster.RungComponent
	RungInstance  = cluster.RungInstance
	RungRestart   = cluster.RungRestart
)

// FaultSessionCrash is the campaign's session-granular crash: it pairs
// with the redis workload and expects rung-1 recovery with untouched
// sessions observing zero errors.
const FaultSessionCrash = campaign.FaultSessionCrash

// Active defense (internal/defense): reboot-based recovery doubling as a
// security response. With CoreConfig.Defense enabled, arena seals detect
// host-boundary tampering at quiescent points, detections stamp a taint
// watermark, recovery restores the newest checkpoint image strictly
// predating the watermark (quarantining every image at or after it), and
// each reboot re-randomizes the component's arena layout
// (Runtime.LayoutFingerprint exposes the current permutation).
type (
	// DefensePolicy configures the pipeline detect -> watermark ->
	// taint-aware rollback -> re-randomize (CoreConfig.Defense).
	DefensePolicy = defense.Policy
)

// Attack-shaped campaign fault kinds (cmd/vampos-campaign -faults
// tamper,badframe,xdomtouch): host-side arena tampering, a corrupted 9P
// response frame, and a PKRU misuse attempt from a saboteur component.
// Their trials always run with the defense pipeline armed.
const (
	FaultTamper    = campaign.FaultTamper
	FaultBadFrame  = campaign.FaultBadFrame
	FaultXDomTouch = campaign.FaultXDomTouch
)

// Instance-level fault kinds understood by the campaign engine's
// cluster workload ("-workloads cluster"): the victim member is killed
// outright, or partitioned from its peers until the cell heals it.
const (
	FaultInstanceKill = campaign.FaultInstanceKill
	FaultPartition    = campaign.FaultPartition
)

// Sentinel errors from the runtime.
var (
	// ErrComponentRebooted reports a call interrupted by the target's
	// reboot (retried transparently once before surfacing).
	ErrComponentRebooted = core.ErrComponentRebooted
	// ErrComponentFailed reports a deterministic-fault fail-stop.
	ErrComponentFailed = core.ErrComponentFailed
	// ErrUnrebootable reports a reboot attempt on a component whose
	// state is shared with the host (VIRTIO).
	ErrUnrebootable = core.ErrUnrebootable
	// ErrMicrorebootEscalated reports a session microreboot that could
	// not stay at rung 1 (unattributable session, eviction refused, or
	// replay divergence) and escalated to a successful component reboot.
	ErrMicrorebootEscalated = core.ErrMicrorebootEscalated
	// ErrNotReplicated reports a cluster write rejected because the
	// owner could not reach a full write quorum, or because a backup's
	// LWW merge refused the delta (a stale-clocked owner); rejected
	// writes are never acknowledged and never survive convergence over
	// an acknowledged value.
	ErrNotReplicated = cluster.ErrNotReplicated
)
