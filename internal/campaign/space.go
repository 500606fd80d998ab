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

// The campaign's fault kinds, each declared by its faultTable row and
// run by the type its row makes.
const (
	FaultCrash        FaultName = "crash"        // fail-stop crash at the site (§II-B)
	FaultHang         FaultName = "hang"         // fail-stop hang at the site (§II-B)
	FaultErrno        FaultName = "errno"        // a transient EIO: must not set recovery off
	FaultLeak         FaultName = "leak"         // a heap leak a proactive reboot clears (§VII-D)
	FaultWildWrite    FaultName = "wildwrite"    // a stray cross-domain store, confined (§V-D)
	FaultAging        FaultName = "aging"        // a dripped leak the leak-slope sensor must catch
	FaultInstanceKill FaultName = "instancekill" // a cluster member's unrebootable VIRTIO fault
	FaultPartition    FaultName = "partition"    // a cluster member cut off from its peers
	FaultSessionCrash FaultName = "sessioncrash" // a crash at one session site, kept at the session rung
	FaultTamper       FaultName = "tamper"       // host-side byte flip in the durable arena
	FaultBadFrame     FaultName = "badframe"     // a corrupted 9P response frame
	FaultXDomTouch    FaultName = "xdomtouch"    // a saboteur's PKRU misuse against the target
)

// plane is the scope a fault kind strikes — a component of one instance,
// or a member of a replicated cluster: how the campaign lists a
// workload's targets there, and how it runs a trial there. A workload
// runs on one plane and pairs only with that plane's fault kinds.
type plane struct {
	targets func(w workloadRow, cc core.Config) ([]target, error)
	run     func(t *trial, cc core.Config, k faultKind, res *CellResult, j *judgement) error
}

var (
	onInstance = &plane{targets: instanceTargets, run: (*trial).runInstance}
	onCluster  = &plane{targets: clusterTargets, run: (*trial).runCluster}
)

// target is one component a workload's cells may strike, with what the
// fault table's site rules read of it.
type target struct {
	name                       string
	unrebootable, checkpointed bool
	sessionful                 []string // session-attributable exports, sorted
}

// The site rules: which fault sites of a target a kind strikes. Only
// sessioncrash is per-function (the wildcard could strike a non-session
// site and legitimately recover at the component rung); the other kinds
// are not tied to one site. Tamper needs the image history of a
// checkpoint-eligible target to roll back through, and badframe strikes
// 9PFS, the 9P frames' consumer.
func wildcard(target) []string         { return wildcardIf(true) }
func eachSessionful(c target) []string { return c.sessionful }
func ifCheckpointed(c target) []string { return wildcardIf(c.checkpointed) }
func only9pfs(c target) []string       { return wildcardIf(c.name == "9pfs") }
func wildcardIf(ok bool) []string {
	if ok {
		return []string{core.AnyFunction}
	}
	return nil
}

// faultRow declares one fault kind.
type faultRow struct {
	name      FaultName
	plane     *plane
	workload  string // the one workload it pairs with; "" = every workload of its plane
	byDefault bool
	sites     func(target) []string
	// rebootInducing: the kind must reboot its target (or rejuvenate it),
	// so its cells on an unrebootable target are expected-unrecoverable.
	rebootInducing bool
	budget         *int // fixed service budget; nil leaves it to the workload
	kind           func() faultKind
}

func fixed(n int) *int { return &n }

// faultTable is the campaign's fault dimension in presentation order
// (DESIGN.md §8 tabulates it): a new kind is a row and its type.
var faultTable = []faultRow{
	{name: FaultCrash, plane: onInstance, byDefault: true, sites: wildcard, rebootInducing: true, kind: armed(core.FaultCrash)},
	{name: FaultHang, plane: onInstance, byDefault: true, sites: wildcard, rebootInducing: true, kind: armed(core.FaultHang)},
	// The injected errno surfaces exactly once: a budget of 3 is margin.
	{name: FaultErrno, plane: onInstance, sites: wildcard, budget: fixed(3), kind: armed(core.FaultErrno)},
	{name: FaultLeak, plane: onInstance, sites: wildcard, rebootInducing: true, kind: func() faultKind { return &leakFault{} }},
	// A confined stray store must disturb nothing.
	{name: FaultWildWrite, plane: onInstance, sites: wildcard, budget: fixed(0), kind: func() faultKind { return &wildWrite{} }},
	{name: FaultAging, plane: onInstance, sites: wildcard, rebootInducing: true, kind: func() faultKind { return &agingFault{} }},
	{name: FaultInstanceKill, plane: onCluster, byDefault: true, sites: wildcard, kind: func() faultKind { return instanceKill{} }},
	{name: FaultPartition, plane: onCluster, byDefault: true, sites: wildcard, kind: func() faultKind { return partition{} }},
	{name: FaultSessionCrash, plane: onInstance, workload: "redis", sites: eachSessionful, kind: newSessionFault},
	{name: FaultTamper, plane: onInstance, sites: ifCheckpointed, kind: newAttack},
	{name: FaultBadFrame, plane: onInstance, sites: only9pfs, kind: newAttack},
	{name: FaultXDomTouch, plane: onInstance, sites: wildcard, budget: fixed(0), kind: newAttack},
}

func (f faultRow) pairsWith(w workloadRow) bool {
	return f.plane == w.plane && (f.workload == "" || f.workload == w.name)
}

// workloadRow declares one workload.
type workloadRow struct {
	name      string
	plane     *plane
	byDefault bool
	// inProcess: the runtime retries the workload's syscalls
	// transparently, so crash and hang recovery must be invisible to it
	// (service budget 0). Network clients legitimately observe resets in
	// the recovery window (the paper's Fig. 8 outage): a budget of 20 and
	// a reconnect.
	inProcess bool
	driver    func() driver // nil on the cluster plane
}

// workloadTable lists the paper's four applications in §VI order, then
// the cluster of replicated members, which only an explicit selection
// runs.
var workloadTable = []workloadRow{
	{name: "sqlite", plane: onInstance, byDefault: true, inProcess: true, driver: newSQLiteApp},
	{name: "nginx", plane: onInstance, byDefault: true, driver: newNginxApp},
	{name: "redis", plane: onInstance, byDefault: true, driver: newRedisApp},
	{name: "echo", plane: onInstance, byDefault: true, driver: newEchoApp},
	{name: "cluster", plane: onCluster},
}

// configRow declares one configuration by its short name.
type configRow struct {
	name      string
	bench     bench.ConfigName
	byDefault bool
}

// configTable lists the message-passing configurations in paper order
// (vanilla has no component boundary to recover behind); the default
// slice is round-robin and dependency-aware scheduling, unmerged.
var configTable = []configRow{
	{name: "noop", bench: bench.Noop, byDefault: true},
	{name: "das", bench: bench.DaS, byDefault: true},
	{name: "fsm", bench: bench.FSm},
	{name: "netm", bench: bench.NETm},
}

// row is one entry of a dimension table: its name, and whether an empty
// selection holds it.
type row interface{ entry() (string, bool) }

func (f faultRow) entry() (string, bool)    { return string(f.name), f.byDefault }
func (w workloadRow) entry() (string, bool) { return w.name, w.byDefault }
func (c configRow) entry() (string, bool)   { return c.name, c.byDefault }

// lookup returns the row named name; what names the dimension in the
// error.
func lookup[R row, N ~string](what string, rows []R, name N) (R, error) {
	for _, r := range rows {
		if key, _ := r.entry(); key == string(name) {
			return r, nil
		}
	}
	var zero R
	return zero, fmt.Errorf("campaign: unknown %s %q (valid: %s)", what, name, strings.Join(keys(rows, false), ", "))
}

// selection resolves one filter to its rows in filter order, a repeated
// name once; an empty filter selects the rows an empty selection holds.
func selection[R row, N ~string](what string, rows []R, names []N) ([]R, error) {
	var out []R
	for i, n := range names {
		r, err := lookup(what, rows, n)
		if err != nil {
			return nil, err
		}
		if !slices.Contains(names[:i], n) {
			out = append(out, r)
		}
	}
	if len(names) == 0 {
		for _, r := range rows {
			if _, byDefault := r.entry(); byDefault {
				out = append(out, r)
			}
		}
	}
	return out, nil
}

// keys lists the rows' names in table order: only those an empty
// selection holds, when defaults is set.
func keys[R row](rows []R, defaults bool) []string {
	var out []string
	for _, r := range rows {
		if key, byDefault := r.entry(); byDefault || !defaults {
			out = append(out, key)
		}
	}
	return out
}

// Choices describes the valid values of the workload, configuration and
// fault dimensions, each with the slice an empty selection takes, for
// the campaign command's flag help.
func Choices() (workloads, configs, faults string) {
	return choices(workloadTable), choices(configTable), choices(faultTable)
}

func choices[R row](rows []R) string {
	return strings.Join(keys(rows, false), ",") + "; empty = " + strings.Join(keys(rows, true), ",")
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

// SpaceOptions selects a slice of the injection space. An empty field
// selects that dimension's default slice (every component, for
// Components): the default campaign is every component of the four
// applications × {crash, hang} × {noop, das}, fault site "*". A repeated
// value counts once.
type SpaceOptions struct {
	Workloads  []string
	Configs    []string
	Components []string
	Faults     []FaultName
}

// instanceTargets reads a workload's injection points off a throwaway
// instance with its profile: nothing is hard-coded, so a newly
// registered component automatically joins the campaign.
func instanceTargets(w workloadRow, cc core.Config) ([]target, error) {
	inst, err := unikernel.New(w.driver().profile(unikernel.Config{Core: cc}))
	if err != nil {
		return nil, err
	}
	var out []target
	// InjectionPoints lists a component's sites together, functions sorted.
	for _, p := range inst.Runtime().InjectionPoints() {
		if len(out) == 0 || out[len(out)-1].name != p.Component {
			out = append(out, target{name: p.Component, unrebootable: p.Unrebootable, checkpointed: p.Checkpointed})
		}
		if p.Sessionful {
			c := &out[len(out)-1]
			c.sessionful = append(c.sessionful, p.Fn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// clusterTargets is the cluster's members: the component dimension
// selects the victim.
func clusterTargets(workloadRow, core.Config) ([]target, error) {
	out := make([]target, clusterNodes)
	for v := range out {
		out[v].name = fmt.Sprintf("node%d", v)
	}
	return out, nil
}

// EnumerateSpace builds the campaign's cell list: for each workload ×
// config it lists the targets of the workload's plane, and pairs each
// with every selected fault kind of that plane at the sites the kind's
// row strikes. A selection that yields no cell is an error.
func EnumerateSpace(o SpaceOptions) ([]Cell, error) {
	workloads, err := selection("workload", workloadTable, o.Workloads)
	if err != nil {
		return nil, err
	}
	configs, err := selection("config", configTable, o.Configs)
	if err != nil {
		return nil, err
	}
	faults, err := selection("fault", faultTable, o.Faults)
	if err != nil {
		return nil, err
	}
	var cells []Cell
	linked := map[string]bool{}
	for _, w := range workloads {
		for _, cfg := range configs {
			targets, err := w.plane.targets(w, bench.CoreConfig(cfg.bench))
			if err != nil {
				return nil, fmt.Errorf("campaign: enumerate %s/%s: %w", w.name, cfg.name, err)
			}
			for _, c := range targets {
				linked[c.name] = true
				if len(o.Components) > 0 && !slices.Contains(o.Components, c.name) {
					continue
				}
				for _, f := range faults {
					if !f.pairsWith(w) {
						continue
					}
					for _, fn := range f.sites(c) {
						cells = append(cells, Cell{
							Workload: w.name, Config: cfg.name, Component: c.name,
							Function: fn, Fault: f.name,
							Expected: c.unrebootable && f.rebootInducing,
						})
					}
				}
			}
		}
	}
	for _, c := range o.Components {
		if !linked[c] {
			known := make([]string, 0, len(linked))
			for k := range linked {
				known = append(known, k)
			}
			sort.Strings(known)
			return nil, fmt.Errorf("campaign: component %q not linked in any selected workload (linked: %s)",
				c, strings.Join(known, ", "))
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("campaign: empty selection: no fault of %s pairs with a selected component of %s",
			strings.Join(keys(faults, false), ","), strings.Join(keys(workloads, false), ","))
	}
	return cells, nil
}
