package campaign

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"vampos/internal/bench"
	"vampos/internal/core"
	"vampos/internal/unikernel"
)

// FaultName identifies one injected failure mode of the campaign.
type FaultName string

// The campaign's fault dimension: the paper's fail-stop crash and hang
// (§II-B), the transient-errno fault that must not trigger recovery, the
// allocator-leak aging scenario (§VII-D) resolved by a proactive reboot,
// and the wild-write containment scenario (§V-D).
const (
	FaultCrash     FaultName = "crash"
	FaultHang      FaultName = "hang"
	FaultErrno     FaultName = "errno"
	FaultLeak      FaultName = "leak"
	FaultWildWrite FaultName = "wildwrite"
	// FaultAging arms a gradual allocator leak while an adaptive
	// rejuvenation controller (Config.Aging) watches the component's
	// leak slope: recovery must be sensor-triggered, not scheduled.
	FaultAging FaultName = "aging"
	// FaultInstanceKill is an instance-level fault of the cluster
	// workload: a VIRTIO fault on one member that component reboot
	// cannot contain, forcing escalation to whole-instance kill,
	// failover, and reboot-and-resync from the surviving replicas.
	FaultInstanceKill FaultName = "instancekill"
	// FaultPartition is an instance-level fault of the cluster
	// workload: one member is cut off from its peers; the majority must
	// keep acknowledging writes, the minority must refuse them, and the
	// heal must reconverge every replica to one state.
	FaultPartition FaultName = "partition"
	// FaultSessionCrash is a session-granular crash: it pairs only with
	// the redis workload (several persistent client connections), arms a
	// crash on one session-attributable fault site, and expects rung-1
	// recovery — the faulted session evicted and replayed in place while
	// every untouched session observes zero errors. Cells enumerate
	// per-function over the session-bearing exports (never "*": a
	// wildcard could strike a non-session site and legitimately recover
	// at the component rung).
	FaultSessionCrash FaultName = "sessioncrash"
	// FaultTamper is an attack-shaped fault: between calls, a host-side
	// saboteur flips bytes in the component's durable arena. Pairs only
	// with checkpoint-eligible components — the ones whose image history a
	// taint-aware rollback can land on. The arena seal must detect the
	// tamper, recovery must roll back to an image strictly predating the
	// taint watermark, and the reboot must re-randomize the arena layout.
	FaultTamper FaultName = "tamper"
	// FaultBadFrame is an attack-shaped fault at the host boundary: the
	// host corrupts a 9P response frame in flight. Pairs only with the
	// 9PFS component (the frame's consumer). The hardened decoder must
	// reject the frame, the defensive crash must reboot 9PFS, and the
	// interrupted syscall must be retried transparently.
	FaultBadFrame FaultName = "badframe"
	// FaultXDomTouch is an attack-shaped fault: a registered saboteur
	// component attempts PKRU misuse — writing into the cell component's
	// protection domain. The write must be confined (EFAULT, victim
	// intact), and with RebootOnFault armed the offender — not the victim
	// — gets a fresh re-randomized incarnation per attempt.
	FaultXDomTouch FaultName = "xdomtouch"
)

// AllFaults lists every fault kind in presentation order.
func AllFaults() []FaultName {
	return []FaultName{FaultCrash, FaultHang, FaultErrno, FaultLeak, FaultWildWrite, FaultAging,
		FaultInstanceKill, FaultPartition, FaultSessionCrash,
		FaultTamper, FaultBadFrame, FaultXDomTouch}
}

func (f FaultName) defenseFault() bool {
	return f == FaultTamper || f == FaultBadFrame || f == FaultXDomTouch
}

// ClusterWorkload is the multi-instance workload name: N replicated
// members instead of one instance. It only pairs with the cluster
// fault kinds and is opted into via -workloads, never by default.
const ClusterWorkload = "cluster"

// clusterFaults lists the instance-level fault kinds.
func clusterFaults() []FaultName { return []FaultName{FaultInstanceKill, FaultPartition} }

func (f FaultName) clusterFault() bool {
	return f == FaultInstanceKill || f == FaultPartition
}

// DefaultFaults is the default campaign slice: the paper's two fail-stop
// modes, which exercise the full detect→reboot→replay machinery.
func DefaultFaults() []FaultName { return []FaultName{FaultCrash, FaultHang} }

// rebootInducing reports whether a fault kind is expected to reboot the
// target component (directly or via a proactive rejuvenation).
func (f FaultName) rebootInducing() bool {
	return f == FaultCrash || f == FaultHang || f == FaultLeak || f == FaultAging
}

// AllWorkloads lists the paper's four applications in §VI order.
func AllWorkloads() []string { return []string{"sqlite", "nginx", "redis", "echo"} }

// Campaign configuration short names and their bench equivalents. The
// campaign only runs message-passing configurations: vanilla has no
// component boundary to recover behind.
var configNames = map[string]bench.ConfigName{
	"noop": bench.Noop,
	"das":  bench.DaS,
	"fsm":  bench.FSm,
	"netm": bench.NETm,
}

// AllConfigs lists the message-passing configurations in paper order.
func AllConfigs() []string { return []string{"noop", "das", "fsm", "netm"} }

// DefaultConfigs is the default campaign slice: round-robin and
// dependency-aware scheduling, unmerged.
func DefaultConfigs() []string { return []string{"noop", "das"} }

func coreConfigFor(name string) (core.Config, error) {
	bn, ok := configNames[name]
	if !ok {
		return core.Config{}, fmt.Errorf("campaign: unknown config %q (valid: %s)",
			name, strings.Join(AllConfigs(), ", "))
	}
	return bench.CoreConfig(bn), nil
}

// Cell is one point of the injection space: inject Fault into
// Component.Function while Workload runs on Config.
type Cell struct {
	Workload  string    `json:"workload"`
	Config    string    `json:"config"`
	Component string    `json:"component"`
	Function  string    `json:"function"` // "*" = any exported function
	Fault     FaultName `json:"fault"`
	// Expected marks an expected-unrecoverable cell: a reboot-inducing
	// fault in VIRTIO, whose state is shared with the host and which the
	// paper documents as unrebootable. Whatever the outcome, the cell is
	// classified as expected-unrecoverable, never as a regression.
	Expected bool `json:"expected_unrecoverable,omitempty"`
}

// ID is the cell's stable identifier, usable with the -trial flag.
func (c Cell) ID() string {
	return fmt.Sprintf("%s/%s/%s/%s/%s", c.Workload, c.Config, c.Component, c.Function, c.Fault)
}

// SpaceOptions selects a slice of the injection space. Zero-value fields
// select the default campaign: every component of every workload profile
// × {crash, hang} × all four workloads × {noop, das}, fault site "*".
type SpaceOptions struct {
	Workloads  []string
	Configs    []string
	Components []string
	Faults     []FaultName
}

func (o SpaceOptions) fill() SpaceOptions {
	if len(o.Workloads) == 0 {
		o.Workloads = AllWorkloads()
	}
	if len(o.Configs) == 0 {
		o.Configs = DefaultConfigs()
	}
	if len(o.Faults) == 0 {
		o.Faults = DefaultFaults()
	}
	return o
}

// profileFor returns the instance profile a workload's application
// selects (paper Table I: which components are linked per app).
func profileFor(workload string, cc core.Config) (unikernel.Config, error) {
	d, err := driverFor(workload)
	if err != nil {
		return unikernel.Config{}, err
	}
	return d.profile(unikernel.Config{Core: cc}), nil
}

// EnumerateSpace builds the campaign's cell list from the component
// registries: for each workload × config it assembles a throwaway
// instance with that workload's profile and reads the injection points
// (components, exported functions, unrebootable flags) off the runtime —
// nothing is hard-coded, so a newly registered component automatically
// joins the campaign.
func EnumerateSpace(o SpaceOptions) ([]Cell, error) {
	o = o.fill()
	for _, f := range o.Faults {
		if !slices.Contains(AllFaults(), f) {
			return nil, fmt.Errorf("campaign: unknown fault %q (valid: %s)", f, faultList())
		}
	}
	var cells []Cell
	seenComponents := map[string]bool{}
	for _, w := range o.Workloads {
		if w == ClusterWorkload {
			// Multi-instance cells: the component dimension selects the
			// victim member, the fault dimension the instance-level fault.
			// When the selected faults include no cluster fault (the
			// default slice is crash/hang), both cluster kinds run.
			sel := make([]FaultName, 0, 2)
			for _, f := range o.Faults {
				if f.clusterFault() {
					sel = append(sel, f)
				}
			}
			if len(sel) == 0 {
				sel = clusterFaults()
			}
			for _, cfg := range o.Configs {
				if _, err := coreConfigFor(cfg); err != nil {
					return nil, err
				}
				for v := 0; v < clusterNodes; v++ {
					comp := fmt.Sprintf("node%d", v)
					seenComponents[comp] = true
					if len(o.Components) > 0 && !slices.Contains(o.Components, comp) {
						continue
					}
					for _, fault := range sel {
						cells = append(cells, Cell{
							Workload: w, Config: cfg, Component: comp,
							Function: core.AnyFunction, Fault: fault,
						})
					}
				}
			}
			continue
		}
		for _, cfg := range o.Configs {
			cc, err := coreConfigFor(cfg)
			if err != nil {
				return nil, err
			}
			ucfg, err := profileFor(w, cc)
			if err != nil {
				return nil, err
			}
			inst, err := unikernel.New(ucfg)
			if err != nil {
				return nil, fmt.Errorf("campaign: enumerate %s/%s: %w", w, cfg, err)
			}
			points := inst.Runtime().InjectionPoints()
			byComp := map[string][]core.InjectionPoint{}
			var order []string
			for _, p := range points {
				if len(byComp[p.Component]) == 0 {
					order = append(order, p.Component)
				}
				byComp[p.Component] = append(byComp[p.Component], p)
				seenComponents[p.Component] = true
			}
			sort.Strings(order)
			for _, comp := range order {
				if len(o.Components) > 0 && !slices.Contains(o.Components, comp) {
					continue
				}
				unrebootable := byComp[comp][0].Unrebootable
				for _, fault := range o.Faults {
					if fault.clusterFault() {
						continue // instance-level kinds only pair with the cluster workload
					}
					if fault == FaultSessionCrash {
						// Session cells pair with the many-connection redis
						// workload and enumerate one cell per
						// session-attributable export of the component.
						if w != "redis" {
							continue
						}
						var fns []string
						for _, p := range byComp[comp] {
							if p.Sessionful {
								fns = append(fns, p.Fn)
							}
						}
						sort.Strings(fns)
						for _, fn := range fns {
							cells = append(cells, Cell{
								Workload: w, Config: cfg, Component: comp,
								Function: fn, Fault: FaultSessionCrash,
							})
						}
						continue
					}
					if fault.defenseFault() {
						// Attack cells have restricted pairings: tamper needs a
						// victim with an image history to roll back through,
						// badframe strikes the 9P frame's consumer, and a
						// cross-domain touch needs a victim arena (any component
						// with a heap — same as wildwrite). All run at wildcard
						// granularity: the attack is not tied to a fault site.
						switch fault {
						case FaultTamper:
							if !byComp[comp][0].Checkpointed {
								continue
							}
						case FaultBadFrame:
							if comp != "9pfs" {
								continue
							}
						}
						cells = append(cells, Cell{
							Workload: w, Config: cfg, Component: comp,
							Function: core.AnyFunction, Fault: fault,
						})
						continue
					}
					cells = append(cells, Cell{
						Workload: w, Config: cfg, Component: comp,
						Function: core.AnyFunction, Fault: fault,
						Expected: unrebootable && fault.rebootInducing(),
					})
				}
			}
		}
	}
	if len(o.Components) > 0 {
		for _, c := range o.Components {
			if !seenComponents[c] {
				known := make([]string, 0, len(seenComponents))
				for k := range seenComponents {
					known = append(known, k)
				}
				sort.Strings(known)
				return nil, fmt.Errorf("campaign: component %q not linked in any selected workload (linked: %s)",
					c, strings.Join(known, ", "))
			}
		}
	}
	return cells, nil
}

func faultList() string {
	var names []string
	for _, f := range AllFaults() {
		names = append(names, string(f))
	}
	return strings.Join(names, ", ")
}
