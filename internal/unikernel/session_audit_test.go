package unikernel

import (
	"strings"
	"testing"

	"vampos/internal/core"
	"vampos/internal/host"
	"vampos/internal/lwip"
	"vampos/internal/msg"
	"vampos/internal/ninep"
	"vampos/internal/vfs"
)

// sessionTable is the view of a component the session-audit exercises:
// its export table, its Table II log policies, and its session resolver.
type sessionTable interface {
	Exports() map[string]core.Handler
	LogPolicies() map[string]core.LogPolicy
	SessionOf(fn string, args msg.Encoded) msg.SessionID
	SessionFns() []string
}

// TestSessionExportAudit audits the three session-bearing components'
// export tables against their Classify tables: every export is either
// covered by a log policy or on the component's documented stateless
// list, every state-bearing export yields a session ID under
// classification, and the SessionOf resolver agrees with the Classify
// closure wherever both derive a session from the arguments. A new
// export that forgets its policy — the bug class this pins — fails the
// audit instead of silently becoming unreplayable.
func TestSessionExportAudit(t *testing.T) {
	cases := []struct {
		name   string
		comp   sessionTable
		prefix string // session id namespace: "fd:", "sock:", "fid:"
		// stateless lists the exports deliberately left unlogged: calls
		// that read or mutate no component state worth replaying (the
		// component doc comments record each exemption's rationale).
		stateless []string
		// global lists the logged exports whose durable effect is
		// component-wide, not per-session (mount, mkdir, ...): the only
		// classifications allowed to yield an empty session.
		global []string
	}{
		{
			name: "vfs", comp: vfs.New(), prefix: "fd:",
			stateless: []string{
				"stat", "readdir", "vfscore_vget", "sock_state", // read-only
				"__vfs_set_offset", // synthetic compaction install: logged via AppendSynthetic, not a policy
			},
			global: []string{"mount", "mkdir", "unlink"},
		},
		{
			name: "lwip", comp: lwip.New(host.GuestIP), prefix: "sock:",
			stateless: []string{
				"accept", "send", "recv", "rx_pump", "conn_state", // data path: effects live in extracted runtime state
			},
			global: nil,
		},
		{
			name: "9pfs", comp: ninep.NewFS(), prefix: "fid:",
			stateless: []string{
				"uk_9pfs_read", "uk_9pfs_write", "uk_9pfs_fsync", // offsets live in VFS
				"uk_9pfs_stat", "uk_9pfs_lookup", "uk_9pfs_readdir", // no vnode cache
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
			policies := tc.comp.LogPolicies()
			stateless := map[string]bool{}
			for _, fn := range tc.stateless {
				stateless[fn] = true
				if _, ok := exports[fn]; !ok {
					t.Errorf("stateless list names %q, which is not an export", fn)
				}
				if _, ok := policies[fn]; ok {
					t.Errorf("%q is on the stateless list but has a log policy", fn)
				}
			}
			global := map[string]bool{}
			for _, fn := range tc.global {
				global[fn] = true
			}
			// Every export is classified or consciously exempted.
			for fn := range exports {
				if _, ok := policies[fn]; !ok && !stateless[fn] {
					t.Errorf("export %q has no log policy and is not on the stateless list", fn)
				}
			}
			for fn := range policies {
				if _, ok := exports[fn]; !ok {
					t.Errorf("log policy for %q, which is not an export", fn)
				}
			}
			// Every state-bearing export yields a session ID when
			// classified; only the documented global durables may not.
			for fn, pol := range policies {
				session, class := pol.Classify(args, rets, nil)
				if global[fn] {
					if session != "" {
						t.Errorf("%s: global durable yields session %q, want none", fn, session)
					}
					continue
				}
				if session == "" {
					t.Errorf("%s: state-bearing export classified with no session (class %v)", fn, class)
					continue
				}
				if !strings.HasPrefix(string(session), tc.prefix) {
					t.Errorf("%s: session %q outside the %q namespace", fn, session, tc.prefix)
				}
			}
			// The resolver covers exactly the argument-derivable sites and
			// agrees with Classify on each of them.
			for _, fn := range tc.comp.SessionFns() {
				if _, ok := exports[fn]; !ok {
					t.Errorf("SessionFns names %q, which is not an export", fn)
					continue
				}
				got := tc.comp.SessionOf(fn, args)
				if got == "" {
					t.Errorf("SessionOf(%s) yields no session for a listed fn", fn)
					continue
				}
				if !strings.HasPrefix(string(got), tc.prefix) {
					t.Errorf("SessionOf(%s) = %q, outside the %q namespace", fn, got, tc.prefix)
				}
				if tc.comp.SessionOf(fn, nil) != "" {
					t.Errorf("SessionOf(%s) yields a session from empty args", fn)
				}
				if pol, ok := policies[fn]; ok {
					session, class := pol.Classify(args, rets, nil)
					if class != msg.ClassOpener && session != got {
						t.Errorf("%s: Classify session %q != SessionOf %q", fn, session, got)
					}
				}
			}
			// And it stays silent off-list: openers mint their session from
			// the return value, so attribution by arguments must refuse.
			for fn := range exports {
				listed := false
				for _, sfn := range tc.comp.SessionFns() {
					if sfn == fn {
						listed = true
						break
					}
				}
				if !listed {
					if got := tc.comp.SessionOf(fn, args); got != "" {
						t.Errorf("SessionOf(%s) = %q for an unlisted fn, want none", fn, got)
					}
				}
			}
		})
	}
}
