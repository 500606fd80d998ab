package analysis

import (
	"go/ast"
)

// quiescentOps are the Ctx operations that tear down and rebuild
// component state. Each assumes its target is quiescent: Checkpoint
// snapshots a group whose worker is parked between calls, Rejuvenate
// reboots and re-images a component, and MicrorebootSession evicts and
// replays a session slice. Invoked from inside a component handler the
// operation would run mid-call — the group is busy, the log record is
// open, and the handler's own frame is part of the state being
// dissolved. Only the quiescent drivers (the checkpoint manager, the
// aging driver, the recovery ladder, host-side harnesses and tests) may
// call them.
var quiescentOps = map[string]bool{
	"Checkpoint":         true,
	"Rejuvenate":         true,
	"MicrorebootSession": true,
}

// QuiescentCall forbids component packages from invoking (or capturing)
// the quiescent-context recovery operations of internal/core's Ctx.
var QuiescentCall = &Analyzer{
	Name: "quiescentcall",
	Doc: "Ctx.Checkpoint/Rejuvenate/MicrorebootSession are quiescent-context " +
		"operations (checkpoint manager, aging driver, recovery ladder, tests); " +
		"component handlers must never invoke them mid-call",
	Run: runQuiescentCall,
}

func runQuiescentCall(pass *Pass) error {
	if componentOf(pass.Path) == "" {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s, ok := pass.Info.Selections[sel]
			if !ok || !quiescentOps[sel.Sel.Name] {
				return true
			}
			if !pass.Facts.IsCtxType(namedRecv(s.Recv())) {
				return true
			}
			pass.Reportf(sel.Pos(),
				"component code invokes Ctx.%s: a handler runs mid-call (open log record, busy group), which is never a quiescent point; "+
					"recovery operations belong to the checkpoint manager, the aging driver, and the recovery ladder",
				sel.Sel.Name)
			return true
		})
	}
	return nil
}
