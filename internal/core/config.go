package core

import (
	"time"

	"vampos/internal/aging"
	"vampos/internal/ckpt"
	"vampos/internal/defense"
)

// SchedPolicy selects the component-thread scheduling policy.
type SchedPolicy uint8

// Scheduling policies (paper §V-C).
const (
	// PolicyRoundRobin rotates through every ready thread; idle
	// components poll their mailboxes. This is the VampOS-Noop baseline.
	PolicyRoundRobin SchedPolicy = iota + 1
	// PolicyDependencyAware prefers the message thread and the message's
	// receiver at every hop; idle components block instead of polling.
	PolicyDependencyAware
)

func (p SchedPolicy) String() string {
	switch p {
	case PolicyRoundRobin:
		return "round-robin"
	case PolicyDependencyAware:
		return "dependency-aware"
	default:
		return "unknown"
	}
}

// Config selects a runtime configuration. The paper's five experimental
// configurations map onto it via the constructors below.
type Config struct {
	// MessagePassing turns on component threads, message domains,
	// logging and protection. Off, the runtime is vanilla Unikraft:
	// direct function calls on the caller's context.
	MessagePassing bool
	// Policy selects the scheduler policy (message-passing mode only).
	Policy SchedPolicy
	// Merges lists component groups that share one thread, one key and
	// one mailbox (§V-F). Each inner slice is one merged group.
	Merges [][]string
	// Shards enables the sharded-baton round engine with this many
	// runner goroutines (message-passing mode only). Zero — the default —
	// keeps the paper's single global baton bit-for-bit. Any value >= 1
	// switches to deterministic parallel rounds; by construction the
	// observable behaviour is identical for every positive shard count,
	// so Shards only decides how much real hardware the rounds may use.
	Shards int
	// LogShrinkThreshold triggers component log compaction when a log
	// exceeds this many entries. The paper's default is 100.
	LogShrinkThreshold int
	// LogShrinkEnabled turns session-aware shrinking on. The Table III
	// "normal" column is measured with it off.
	LogShrinkEnabled bool
	// HangThreshold is how long one inbound call may execute before the
	// watchdog declares the component hung. The paper uses 1.0 s.
	HangThreshold time.Duration
	// WatchdogPeriod is the hang-detector scan interval (virtual time).
	WatchdogPeriod time.Duration
	// MaxVirtualTime aborts the simulation when the virtual clock passes
	// it — a backstop against livelocked experiments. Zero means 24 hours.
	MaxVirtualTime time.Duration
	// Ckpt is the incremental-checkpoint cadence applied to every
	// checkpoint-eligible component (Stateful with Checkpoint set). The
	// zero policy keeps the paper's behaviour: one post-init checkpoint,
	// full-log replay on every recovery.
	Ckpt ckpt.Policy
	// Aging enables adaptive sensor-driven rejuvenation: when the policy
	// is enabled (SamplePeriod > 0) and the runtime is message-passing,
	// Boot starts a controller thread that samples every rebootable
	// component's heap on the virtual clock and schedules
	// checkpoint-aware rolling rejuvenation through the reboot manager.
	// The zero policy keeps rejuvenation manual (Ctx.Reboot,
	// Ctx.Rejuvenate).
	Aging aging.Policy
	// AgingTargets restricts the adaptive controller to the named
	// components, in the order it rejuvenates them; empty means every
	// rebootable component in boot order. Boot fails on an unknown name.
	AgingTargets []string
	// Microreboot enables session-granular recovery (rung 1 of the
	// recovery ladder): a failure attributable to one session of an
	// unmerged, session-bearing component evicts and replays only that
	// session while every other session keeps serving; escalation to a
	// whole-component reboot happens automatically when attribution or
	// session replay fails. Off by default so the paper-faithful
	// configurations keep component-granular recovery semantics.
	Microreboot bool
	// Defense configures the active-defense pipeline: arena tamper seals,
	// taint-aware rollback past detected corruption, and re-randomized
	// arena layouts on every reboot. The zero policy keeps recovery
	// purely availability-oriented (restore the latest image).
	Defense defense.Policy
}

// Defaults mirrored from the paper's prototype.
const (
	DefaultLogShrinkThreshold = 100
	DefaultHangThreshold      = 1 * time.Second
	DefaultWatchdogPeriod     = 100 * time.Millisecond
	DefaultMemorySize         = 512 << 20
	// DefaultHeapPages and DefaultDomainPages size a component's arena
	// and message domain when its descriptor leaves them zero.
	DefaultHeapPages   = 1024 // 4 MiB arenas
	DefaultDomainPages = 256  // 1 MiB message domains
)

// fill replaces zero fields with defaults.
func (c Config) fill() Config {
	if c.Policy == 0 {
		c.Policy = PolicyDependencyAware
	}
	if c.LogShrinkThreshold == 0 {
		c.LogShrinkThreshold = DefaultLogShrinkThreshold
	}
	if c.HangThreshold == 0 {
		c.HangThreshold = DefaultHangThreshold
	}
	if c.WatchdogPeriod == 0 {
		c.WatchdogPeriod = DefaultWatchdogPeriod
	}
	if c.MaxVirtualTime == 0 {
		c.MaxVirtualTime = 24 * time.Hour
	}
	c.Defense = c.Defense.Fill()
	return c
}

// VanillaConfig is the baseline: direct calls, no logging, no isolation,
// modelling unmodified Unikraft.
func VanillaConfig() Config {
	return Config{MessagePassing: false, LogShrinkEnabled: false}.fill()
}

// NoopConfig is VampOS-Noop: message passing under round-robin
// scheduling with polling components.
func NoopConfig() Config {
	return Config{
		MessagePassing:   true,
		Policy:           PolicyRoundRobin,
		LogShrinkEnabled: true,
	}.fill()
}

// DaSConfig is VampOS-DaS: Noop plus dependency-aware scheduling.
func DaSConfig() Config {
	return Config{
		MessagePassing:   true,
		Policy:           PolicyDependencyAware,
		LogShrinkEnabled: true,
	}.fill()
}

// FSmConfig is VampOS-FSm: DaS with the file-system components (VFS and
// 9PFS) merged into one group.
func FSmConfig() Config {
	c := DaSConfig()
	c.Merges = [][]string{{"vfs", "9pfs"}}
	return c
}

// NETmConfig is VampOS-NETm: DaS with the network components (LWIP and
// NETDEV) merged into one group.
func NETmConfig() Config {
	c := DaSConfig()
	c.Merges = [][]string{{"lwip", "netdev"}}
	return c
}
