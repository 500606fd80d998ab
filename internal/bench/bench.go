// Package bench reproduces every table and figure in the paper's
// evaluation (§VII): the system-call overhead comparison (Fig. 5), the
// log-space accounting (Table III), component reboot times (Fig. 6),
// real-world application overheads (Fig. 7), the log-shrink-threshold
// sweep (Table IV), the software-rejuvenation success-rate scenario
// (Table V) and the Redis failure-recovery timeline (Fig. 8).
//
// Experiments measure virtual time (the calibrated cost model: message
// hops, log writes, snapshot loads, host I/O latencies) and, where
// meaningful, wall time of the simulation. Absolute values differ from
// the paper's Xeon/QEMU testbed; the reproduced claim is the *shape*:
// orderings, ratios, and who wins where. EXPERIMENTS.md records
// paper-vs-measured for every row.
package bench

import (
	"fmt"
	"math"
	"strings"
	"time"

	"vampos/internal/core"
	"vampos/internal/unikernel"
)

// ConfigName identifies one of the five experimental configurations.
type ConfigName string

// The paper's configurations (§VII-A).
const (
	Vanilla ConfigName = "unikraft"
	Noop    ConfigName = "vampos-noop"
	DaS     ConfigName = "vampos-das"
	FSm     ConfigName = "vampos-fsm"
	NETm    ConfigName = "vampos-netm"
)

// AllConfigs lists the configurations in presentation order.
func AllConfigs() []ConfigName {
	return []ConfigName{Vanilla, Noop, DaS, FSm, NETm}
}

// CoreConfig builds the core configuration for a name.
func CoreConfig(name ConfigName) core.Config {
	switch name {
	case Vanilla:
		return core.VanillaConfig()
	case Noop:
		return core.NoopConfig()
	case DaS:
		return core.DaSConfig()
	case FSm:
		return core.FSmConfig()
	case NETm:
		return core.NETmConfig()
	default:
		panic("bench: unknown config " + string(name))
	}
}

// Scale sets workload sizes. Default returns sizes that keep the whole
// suite in tens of seconds of wall time; Paper returns the paper's
// parameters (minutes of wall time, identical shapes).
type Scale struct {
	// Fig. 5 / Table III
	SyscallTrials int

	// Fig. 6
	RebootTrials   int
	RebootWarmGETs int // GET requests before measuring (paper: 1,000)

	// Fig. 7 / Table IV
	SQLiteInserts int // paper: 10,000 one-byte inserts
	NginxRequests int // stand-in for "40 connections × 1 minute"
	NginxConns    int // paper: 40
	RedisSets     int // paper: 1,000,000 four-byte-key SETs
	EchoMessages  int // stand-in for "159-byte messages × 1 minute"

	// Table V
	SiegeClients  int           // paper: 100
	SiegeRequests int           // requests per client
	RejuvInterval time.Duration // paper: 30 s, scaled down proportionally; also the full-reboot arm's interval

	// Fig. 8
	Fig8WarmKeys int           // paper: 1,000,000
	Fig8Duration time.Duration // observed window (virtual)
	Fig8GETRate  int           // paper: 1,000 GET/s
	Fig8InjectAt time.Duration // when the 9PFS fault fires

	// Checkpoint figure (recovery latency vs calls-since-boot)
	RecoveryCalls     []int // calls-since-boot grid
	RecoveryCkptEvery int   // checkpoint cadence of the "on" arm

	// Aging figure (adaptive vs periodic vs no rejuvenation)
	AgingDuration      time.Duration // virtual run length per arm
	AgingClients       int           // concurrent echo clients
	AgingPeriodicEvery time.Duration // fixed interval of the periodic arm

	// Microreboot figure (recovery ladder: session microreboot vs
	// component reboot vs full restart on a many-session workload)
	MicroSessions  int // concurrently open file fds, one session each
	MicroWritesPer int // retained transient log entries per session

	// Defense figure (recovery-to-latest vs taint-aware rollback under
	// an identical host-boundary arena tamper)
	DefenseWarmWrites int // workload records written before the attack
	DefenseTailWrites int // records written after the attack (plain arm)

	// Cluster availability figure (sync vs async replication across an
	// instance kill)
	ClusterWrites      int // total write stream length
	ClusterKillAt      int // write index at which the victim dies
	ClusterReviveAt    int // write index at which it revives and resyncs
	ClusterGossipEvery int // background gossip round every N writes

	// Scaling figure (sharded batons: wall-clock throughput vs GOMAXPROCS)
	ScalingCells      int   // independent redis cells in one instance, one shard each
	ScalingOpsPerCell int   // SETs each cell's client issues
	ScalingValueBytes int   // SET value size
	ScalingCPUWork    int   // checksum passes per SET (CPU weight of each handler slice)
	ScalingProcs      []int // GOMAXPROCS grid (first entry is the baseline row)
}

// DefaultScale keeps the full suite fast while preserving every shape.
func DefaultScale() Scale {
	return Scale{
		SyscallTrials:      50,
		RebootTrials:       5,
		RebootWarmGETs:     200,
		SQLiteInserts:      1500,
		NginxRequests:      800,
		NginxConns:         8,
		RedisSets:          1500,
		EchoMessages:       1500,
		SiegeClients:       10,
		SiegeRequests:      40,
		RejuvInterval:      2 * time.Second,
		Fig8WarmKeys:       4000,
		Fig8Duration:       30 * time.Second,
		Fig8GETRate:        200,
		Fig8InjectAt:       10 * time.Second,
		RecoveryCalls:      []int{32, 128, 512},
		RecoveryCkptEvery:  32,
		AgingDuration:      2 * time.Second,
		AgingClients:       4,
		AgingPeriodicEvery: 150 * time.Millisecond,
		MicroSessions:      32,
		MicroWritesPer:     8,
		DefenseWarmWrites:  48,
		DefenseTailWrites:  24,
		ClusterWrites:      120,
		// The kill lands mid-gossip-interval (44 % 8 != 0) so the victim
		// holds an acknowledged, not-yet-gossiped tail when it dies — the
		// tail the async arm loses and the sync arm does not.
		ClusterKillAt:      44,
		ClusterReviveAt:    80,
		ClusterGossipEvery: 8,
		ScalingCells:       4,
		ScalingOpsPerCell:  400,
		ScalingValueBytes:  512,
		ScalingCPUWork:     2048,
		ScalingProcs:       []int{1, 2, 4},
	}
}

// PaperScale reproduces the paper's workload parameters.
func PaperScale() Scale {
	s := DefaultScale()
	s.SyscallTrials = 100
	s.RebootTrials = 10
	s.RebootWarmGETs = 1000
	s.SQLiteInserts = 10000
	s.NginxRequests = 20000
	s.NginxConns = 40
	s.RedisSets = 1000000
	s.EchoMessages = 20000
	s.SiegeClients = 100
	s.SiegeRequests = 100
	s.RejuvInterval = 30 * time.Second
	s.Fig8WarmKeys = 1000000
	s.Fig8Duration = 60 * time.Second
	s.Fig8GETRate = 1000
	s.Fig8InjectAt = 20 * time.Second
	s.RecoveryCalls = []int{64, 256, 1024, 4096}
	s.RecoveryCkptEvery = 64
	s.AgingDuration = 8 * time.Second
	s.AgingClients = 8
	s.AgingPeriodicEvery = 500 * time.Millisecond
	s.MicroSessions = 128
	s.MicroWritesPer = 16
	s.DefenseWarmWrites = 128
	s.DefenseTailWrites = 48
	s.ClusterWrites = 600
	s.ClusterKillAt = 200
	s.ClusterReviveAt = 400
	s.ClusterGossipEvery = 16
	s.ScalingCells = 8
	s.ScalingOpsPerCell = 1500
	s.ScalingValueBytes = 1024
	return s
}

// coreConfig is a configuration's core with the suite's virtual-time
// horizon, far beyond any experiment's run.
func coreConfig(name ConfigName) core.Config {
	cc := CoreConfig(name)
	cc.MaxVirtualTime = 12 * time.Hour
	return cc
}

// fullProfile links every component: file system, network and sysinfo.
func fullProfile(cc core.Config) unikernel.Config {
	return unikernel.Config{Core: cc, FS: true, Net: true, Sysinfo: true}
}

// runInstance is the skeleton every single-instance experiment runs in.
// It builds an instance from cfg and hands it to prep, when non-nil,
// before boot: the one point where host files can be seeded and a
// tracer attached. It then boots the instance and runs body as the
// controller thread, stopping the simulation when body returns. The
// instance is closed on return, so body reads every result it needs
// (Close unwinds parked threads, which may still tick counters). The
// error is Run's if the boot failed, else body's.
func runInstance(cfg unikernel.Config, prep func(*unikernel.Instance) error, body func(*unikernel.Sys, *unikernel.Instance) error) error {
	inst, err := unikernel.New(cfg)
	if err != nil {
		return err
	}
	defer inst.Close()
	if prep != nil {
		if err := prep(inst); err != nil {
			return err
		}
	}
	var bodyErr error
	if err := inst.Run(func(s *unikernel.Sys) {
		defer s.Stop()
		bodyErr = body(s, inst)
	}); err != nil {
		return err
	}
	return bodyErr
}

// seedIndex writes the 180-byte page the paper's Nginx workload
// requests into the host export.
func seedIndex(inst *unikernel.Instance) error {
	return inst.Host().FS().WriteFile("/www/index.html", []byte(strings.Repeat("x", 180)))
}

// rebootRecord reboots comp from the controller and returns the record
// of exactly that reboot.
func rebootRecord(s *unikernel.Sys, comp string) (core.RebootRecord, error) {
	rt := s.Instance().Runtime()
	before := len(rt.Reboots())
	if err := s.Reboot(comp); err != nil {
		return core.RebootRecord{}, err
	}
	recs := rt.Reboots()
	if len(recs) != before+1 {
		return core.RebootRecord{}, fmt.Errorf("expected one new reboot record, got %d", len(recs)-before)
	}
	return recs[len(recs)-1], nil
}

// Stat summarises a sample set.
type Stat struct {
	N      int
	Mean   time.Duration
	StdDev time.Duration
	Min    time.Duration
	Max    time.Duration
}

// NewStat computes summary statistics over samples.
func NewStat(samples []time.Duration) Stat {
	if len(samples) == 0 {
		return Stat{}
	}
	s := Stat{N: len(samples), Min: samples[0], Max: samples[0]}
	var sum float64
	for _, v := range samples {
		sum += float64(v)
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	mean := sum / float64(len(samples))
	s.Mean = time.Duration(mean)
	var varsum float64
	for _, v := range samples {
		d := float64(v) - mean
		varsum += d * d
	}
	if len(samples) > 1 {
		s.StdDev = time.Duration(math.Sqrt(varsum / float64(len(samples)-1)))
	}
	return s
}
