package analysis

import (
	"go/ast"
	"go/types"
)

// NoSharedRef enforces value semantics on cross-component payloads,
// arguments and results alike: a pointer, map, chan, func, or non-[]byte
// slice placed into msg.Args would hand the receiving protection domain
// a live reference into the sender's pages — tunnelling under the
// simulated MPK wall in internal/mem — and would make the function-call
// log unreplayable (the log stores the encoded copy; the reference's
// pointee keeps mutating). []byte is permitted because it crosses as
// bytes both ways: Call encodes arguments into the caller's call slot and
// Ret encodes results into the callee's reply buffer, the message thread
// copies each into the other side's buffer, and the msg.Encoded
// accessors copy the bytes out again.
var NoSharedRef = &Analyzer{
	Name: "nosharedref",
	Doc: "msg.Args payloads must be values the codec copies (nil, bool, ints, " +
		"float64, string, []byte); reference types would alias state across protection domains",
	Run: runNoSharedRef,
}

func runNoSharedRef(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if isMsgArgs(pass.TypeOf(n)) {
					for _, el := range n.Elts {
						checkArgExpr(pass, el)
					}
				}
			case *ast.CallExpr:
				checkCallArgs(pass, n)
			}
			return true
		})
	}
	return nil
}

// msgArgsInjectors maps methods of internal/core types whose trailing
// variadic ...any parameter becomes msg.Args to the index of that
// parameter. These are the runtime's message-construction entry points.
var msgArgsInjectors = map[string]int{
	"Call":   2, // (*core.Ctx).Call(target, fn string, args ...any)
	"Inject": 3, // (*core.Runtime).Inject(from, target, fn, args ...any)
	"Ret":    0, // (*core.Ctx).Ret(vals ...any): a handler's results
}

// checkCallArgs flags reference payloads passed to the runtime's
// message-construction methods.
func checkCallArgs(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection, ok := pass.Info.Selections[sel]
	if !ok {
		return
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != modulePath+"/internal/core" {
		return
	}
	start, ok := msgArgsInjectors[fn.Name()]
	if !ok {
		return
	}
	if call.Ellipsis.IsValid() {
		// Call(target, fn, args...) forwards an existing []any; its
		// construction site is where the element check applies.
		return
	}
	for i := start; i < len(call.Args); i++ {
		checkArgExpr(pass, call.Args[i])
	}
}

// checkArgExpr reports one expression that is about to become a
// msg.Args element if its type is a reference kind.
func checkArgExpr(pass *Pass, e ast.Expr) {
	t := pass.TypeOf(e)
	if t == nil {
		return
	}
	if kind := refKind(t); kind != "" {
		pass.Reportf(e.Pos(),
			"%s (%s) placed into msg.Args: reference payloads alias state across the protection-domain wall and break encapsulated replay; pass a value the codec copies (or []byte)",
			kind, types.TypeString(t, types.RelativeTo(pass.Pkg)))
	}
}

// refKind classifies t as a forbidden reference kind, or "" when it is
// a value the codec copies.
func refKind(t types.Type) string {
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		return "pointer"
	case *types.Map:
		return "map"
	case *types.Chan:
		return "channel"
	case *types.Signature:
		return "function value"
	case *types.Slice:
		if b, ok := u.Elem().Underlying().(*types.Basic); ok && b.Kind() == types.Byte {
			return "" // []byte is copied by the codec on both sides
		}
		return "slice"
	default:
		return ""
	}
}

// isMsgArgs reports whether t is internal/msg.Args (possibly behind a
// named alias).
func isMsgArgs(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Args" && obj.Pkg() != nil && obj.Pkg().Path() == modulePath+"/internal/msg"
}
