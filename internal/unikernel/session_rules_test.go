package unikernel

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"vampos/internal/golden"
	"vampos/internal/host"
	"vampos/internal/lwip"
	"vampos/internal/msg"
	"vampos/internal/ninep"
	"vampos/internal/vfs"
)

// TestSessionRules pins, for every export of the three session-bearing
// components, the session rules the runtime derives from their log
// tables: whether a call is logged, the class and session of its record,
// and the session a fault in it is attributed to, all for the call shape
// args = rets = (7, 7). The golden is the oracle that a change to how
// the rules are declared leaves every answer where it was.
func TestSessionRules(t *testing.T) {
	args, err := msg.AppendArgs(nil, msg.Args{7, 7})
	if err != nil {
		t.Fatal(err)
	}
	rets := args
	var b strings.Builder
	for _, tc := range []struct {
		name string
		comp sessionTable
	}{
		{"vfs", vfs.New()},
		{"lwip", lwip.New(host.GuestIP)},
		{"9pfs", ninep.NewFS()},
	} {
		ns, policies := tc.comp.LogPolicies()
		fns := make([]string, 0, len(tc.comp.Exports()))
		for fn := range tc.comp.Exports() {
			fns = append(fns, fn)
		}
		sort.Strings(fns)
		for _, fn := range fns {
			pol := policies[fn]
			class, session := "-", msg.SessionID("")
			logged := pol.Class != 0
			if logged {
				class, session = pol.Class.String(), pol.Session.Read(ns, args, rets)
			}
			fmt.Fprintf(&b, "%s %s logged=%v class=%s session=%q fault=%q\n",
				tc.name, fn, logged, class, session, pol.FaultSession(ns, args))
		}
	}
	golden.Check(t, filepath.Join("testdata", "session_rules.golden"), []byte(b.String()))
}
