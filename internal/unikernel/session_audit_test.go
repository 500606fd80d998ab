package unikernel

import (
	"testing"

	"vampos/internal/core"
	"vampos/internal/host"
	"vampos/internal/lwip"
	"vampos/internal/msg"
	"vampos/internal/ninep"
	"vampos/internal/vfs"
)

// sessionTable is the view of a component the session-audit exercises:
// its export table and its session table (Table II log rows plus fault
// attribution, over one namespace).
type sessionTable interface {
	Exports() map[string]core.Handler
	LogPolicies() (*msg.Namespace, map[string]core.LogPolicy)
}

// TestSessionExportAudit audits the three session-bearing components'
// export tables against their session tables: every export is logged,
// attributable-only or on the component's documented stateless list,
// every state-bearing logged export yields a session ID inside the
// component's namespace, and no row names a session from a call with
// empty arguments and results. A new export that forgets its row — the bug
// class this pins — fails the audit instead of silently becoming
// unreplayable.
func TestSessionExportAudit(t *testing.T) {
	cases := []struct {
		name string
		comp sessionTable
		// stateless lists the exports deliberately left without a row:
		// calls that read or mutate no component state worth replaying
		// and that no fault can be pinned to one session of (the
		// component doc comments record each exemption's rationale).
		stateless []string
		// global lists the logged exports whose durable effect is
		// component-wide, not per-session (mount, mkdir, ...): the only
		// logged rows allowed to yield an empty session.
		global []string
	}{
		{
			name: "vfs", comp: vfs.New(),
			stateless: []string{
				"stat", "vfscore_vget", // read-only, path-based
				"__vfs_set_offset", // synthetic compaction install: logged via AppendSynthetic, not a policy
			},
			global: []string{"mount", "mkdir", "unlink"},
		},
		{
			name: "lwip", comp: lwip.New(host.GuestIP),
			stateless: []string{
				"rx_pump", // data path over every connection at once
			},
			global: nil,
		},
		{
			name: "9pfs", comp: ninep.NewFS(),
			stateless: []string{
				"uk_9pfs_lookup", // no vnode cache
				"uk_9pfs_remove", // path-based host mutation, no component state
			},
			global: []string{"uk_9pfs_mount", "uk_9pfs_mkdir"},
		},
	}
	// Representative call shape: every session derivation in the three
	// components reads an integer resource number from argument or
	// return slot zero.
	args, err := msg.AppendArgs(nil, msg.Args{7, 7})
	if err != nil {
		t.Fatal(err)
	}
	rets := args

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exports := tc.comp.Exports()
			ns, policies := tc.comp.LogPolicies()
			stateless := map[string]bool{}
			for _, fn := range tc.stateless {
				stateless[fn] = true
				if _, ok := exports[fn]; !ok {
					t.Errorf("stateless list names %q, which is not an export", fn)
				}
				if _, ok := policies[fn]; ok {
					t.Errorf("%q is on the stateless list but has a row", fn)
				}
			}
			global := map[string]bool{}
			for _, fn := range tc.global {
				global[fn] = true
			}
			// Every export is logged, attributable or consciously exempted.
			for fn := range exports {
				if _, ok := policies[fn]; !ok && !stateless[fn] {
					t.Errorf("export %q has no row and is not on the stateless list", fn)
				}
			}
			for fn, pol := range policies {
				if _, ok := exports[fn]; !ok {
					t.Errorf("row for %q, which is not an export", fn)
				}
				if pol.Class == 0 && !pol.FaultByArg0 {
					t.Errorf("%s: row neither logs nor attributes the call", fn)
				}
				// A call whose slots hold no integer (no arguments, no
				// results) names no session, neither for its record nor
				// for a fault in it.
				if got := pol.Session.Read(ns, nil, nil); got != "" {
					t.Errorf("%s: record session from empty args = %q, want none", fn, got)
				}
				if got := pol.FaultSession(ns, nil); got != "" {
					t.Errorf("%s: fault session from empty args = %q, want none", fn, got)
				}
			}
			// Every state-bearing logged export yields a session ID in the
			// namespace; only the documented global durables may not.
			for fn, pol := range policies {
				if pol.Class == 0 {
					continue
				}
				session := pol.Session.Read(ns, args, rets)
				if global[fn] {
					if session != "" {
						t.Errorf("%s: global durable yields session %q, want none", fn, session)
					}
					continue
				}
				if session == "" {
					t.Errorf("%s: state-bearing export logged with no session (class %v)", fn, pol.Class)
					continue
				}
				if n, ok := ns.Parse(session); !ok || n != 7 {
					t.Errorf("%s: session %q is not resource 7 of the component's namespace", fn, session)
				}
			}
		})
	}
}
