package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetRange enforces deterministic map iteration in the packages whose
// output is replayed or byte-compared: the runtime core and message
// layer (logged bytes), cluster and gossip (deltas, convergence
// digests), the checkpoint engine (image blobs), and the VFS and LWIP
// components (compacted records). Go randomizes map iteration order per
// run, so a map range whose body can affect that output breaks
// byte-identical campaign matrices and cluster convergence.
//
// A map range is accepted when its body is provably order-insensitive:
// per-key map writes, commutative numeric accumulation (+= * = |= &= ^=,
// ++/--), constant flag sets, delete, and control flow over those. The
// canonical escape is the sorted-keys idiom — collect the keys (or
// entries) into a slice and sort it before use; a collection loop whose
// slice is passed to a sort call in the same function is recognized.
// Everything else (appends, calls, sends, early exits, plain
// assignments to outer state) is reported, because "last writer wins"
// and "first key found" both depend on iteration order.
var DetRange = &Analyzer{
	Name: "detrange",
	Doc: "no order-sensitive iteration over maps in packages whose output is " +
		"logged, gossiped, or byte-compared; sort the keys first",
	Run: runDetRange,
}

func runDetRange(pass *Pass) error {
	if !pass.Facts.OrderedOutputPkg(pass.Path) {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFuncForMapRanges(pass, fd.Body, fd.Body)
		}
	}
	return nil
}

// checkFuncForMapRanges walks one function body (recursing into nested
// function literals with their own scope) and checks every map range.
func checkFuncForMapRanges(pass *Pass, n ast.Node, scope *ast.BlockStmt) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			if m.Body != nil {
				checkFuncForMapRanges(pass, m.Body, m.Body)
			}
			return false
		case *ast.RangeStmt:
			if t := pass.TypeOf(m.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					checkMapRange(pass, m, scope)
				}
			}
		}
		return true
	})
}

// checkMapRange classifies one map-range statement.
func checkMapRange(pass *Pass, rs *ast.RangeStmt, scope *ast.BlockStmt) {
	c := &rangeCheck{pass: pass, rs: rs}
	c.walkStmts(rs.Body.List, true)
	if c.offense == "" && c.collected != nil && !sortedLater(pass, scope, c.collected) {
		c.offense = fmt.Sprintf("keys are collected into %q but never sorted in this function", c.collected.Name())
	}
	if c.offense != "" {
		// Report at the range statement: the loop is the unit a
		// //vampos:allow directive annotates.
		pass.Reportf(rs.Pos(),
			"map iteration order reaches ordered output in deterministic package %s: %s; "+
				"iterate sorted keys (collect + sort first) or annotate the loop: //vampos:allow detrange -- <why the body is order-insensitive>",
			pass.Path, c.offense)
	}
}

type rangeCheck struct {
	pass *Pass
	rs   *ast.RangeStmt
	// collected, when set, is the outer slice the loop appends the
	// key/value into (the sorted-keys collection idiom, validated by
	// sortedLater).
	collected types.Object
	offense   string
}

// local reports whether an object is scoped to the range statement
// (the key/value variables or anything declared inside the body).
func (c *rangeCheck) local(obj types.Object) bool {
	return obj != nil && obj.Pos() >= c.rs.Pos() && obj.Pos() <= c.rs.End()
}

func (c *rangeCheck) fail(_ token.Pos, format string, args ...any) {
	if c.offense == "" {
		c.offense = fmt.Sprintf(format, args...)
	}
}

// walkStmts classifies a statement list. breakBinds is true while a
// break statement would terminate the map range itself (rather than a
// nested loop/switch).
func (c *rangeCheck) walkStmts(stmts []ast.Stmt, breakBinds bool) {
	for _, s := range stmts {
		c.walkStmt(s, breakBinds)
		if c.offense != "" {
			return
		}
	}
}

func (c *rangeCheck) walkStmt(s ast.Stmt, breakBinds bool) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		c.checkAssign(s)
	case *ast.IncDecStmt:
		c.checkExprCalls(s.X)
		if !c.writableTarget(s.X, true) {
			c.fail(s.Pos(), "%s mutates state outside the loop in an order-dependent way", renderExpr(s.X))
		}
	case *ast.DeclStmt:
		c.checkExprCalls(s)
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if ok && c.builtinName(call) == "delete" {
			c.checkArgsCalls(call)
			return
		}
		c.fail(s.Pos(), "calls %s for effect; its side effects happen in iteration order", renderExpr(s.X))
	case *ast.IfStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, breakBinds)
		}
		c.checkExprCalls(s.Cond)
		c.walkStmts(s.Body.List, breakBinds)
		if s.Else != nil {
			c.walkStmt(s.Else, breakBinds)
		}
	case *ast.BlockStmt:
		c.walkStmts(s.List, breakBinds)
	case *ast.ForStmt, *ast.RangeStmt:
		// A nested loop re-binds break/continue; its body is classified
		// under the same write rules. A nested map range is additionally
		// checked on its own by the outer Inspect walk.
		switch l := s.(type) {
		case *ast.ForStmt:
			if l.Init != nil {
				c.walkStmt(l.Init, false)
			}
			c.checkExprCalls(l.Cond)
			if l.Post != nil {
				c.walkStmt(l.Post, false)
			}
			c.walkStmts(l.Body.List, false)
		case *ast.RangeStmt:
			c.checkExprCalls(l.X)
			c.walkStmts(l.Body.List, false)
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, breakBinds)
		}
		c.checkExprCalls(s.Tag)
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					c.checkExprCalls(e)
				}
				c.walkStmts(cc.Body, false)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				c.walkStmts(cc.Body, false)
			}
		}
	case *ast.BranchStmt:
		switch {
		case s.Tok == token.CONTINUE && s.Label == nil:
			// fine: skipping a key is per-key behaviour
		case s.Tok == token.BREAK && !breakBinds && s.Label == nil:
			// breaks a nested loop, not the map range
		default:
			c.fail(s.Pos(), "%s exits mid-iteration, so which keys were processed depends on iteration order", s.Tok)
		}
	case *ast.ReturnStmt:
		c.fail(s.Pos(), "returns mid-iteration, so the result depends on which key came first")
	case *ast.EmptyStmt:
	default:
		c.fail(s.Pos(), "statement whose effects depend on iteration order")
	}
}

// checkAssign classifies one assignment inside the loop body.
func (c *rangeCheck) checkAssign(s *ast.AssignStmt) {
	for _, rhs := range s.Rhs {
		c.checkExprCalls(rhs)
	}
	for i, lhs := range s.Lhs {
		c.checkExprCalls(lhs)
		if c.offense != "" {
			return
		}
		if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		// Per-key map insertion is commutative.
		if ix, ok := lhs.(*ast.IndexExpr); ok {
			if t := c.pass.TypeOf(ix.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					continue
				}
			}
		}
		if c.writableTarget(lhs, false) {
			continue // loop-local state
		}
		// Commutative numeric accumulation into outer state.
		switch s.Tok {
		case token.ADD_ASSIGN, token.MUL_ASSIGN, token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
			if t := c.pass.TypeOf(lhs); t != nil {
				if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsNumeric != 0 {
					continue
				}
			}
		case token.ASSIGN, token.DEFINE:
			// Idempotent flag set: assigning a constant is
			// order-insensitive (every iteration writes the same value).
			if i < len(s.Rhs) && len(s.Rhs) == len(s.Lhs) {
				if tv, ok := c.pass.Info.Types[s.Rhs[i]]; ok && tv.Value != nil {
					continue
				}
				// Sorted-keys collection idiom: x = append(x, key|value).
				if obj := c.collectTarget(lhs, s.Rhs[i]); obj != nil {
					c.collected = obj
					continue
				}
			}
		}
		c.fail(s.Pos(), "assigns to %s outside the loop; last-writer-wins depends on iteration order", renderExpr(lhs))
		return
	}
}

// writableTarget reports whether an assignment target is loop-local
// (numeric requires the ++/-- commutative case to also accept outer
// numeric counters).
func (c *rangeCheck) writableTarget(e ast.Expr, numericOuterOK bool) bool {
	base := e
	for {
		switch x := base.(type) {
		case *ast.IndexExpr:
			base = x.X
		case *ast.SelectorExpr:
			base = x.X
		case *ast.StarExpr:
			base = x.X
		case *ast.ParenExpr:
			base = x.X
		default:
			id, ok := base.(*ast.Ident)
			if !ok {
				return false
			}
			obj := c.pass.Info.Uses[id]
			if obj == nil {
				obj = c.pass.Info.Defs[id]
			}
			if c.local(obj) {
				return true
			}
			if numericOuterOK {
				if t := c.pass.TypeOf(e); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsNumeric != 0 {
						return true
					}
				}
			}
			return false
		}
	}
}

// collectTarget matches `x = append(x, k)` / `x = append(x, v)` where x
// is an outer slice and k/v is the range key or value, returning x's
// object.
func (c *rangeCheck) collectTarget(lhs, rhs ast.Expr) types.Object {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return nil
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok || c.builtinName(call) != "append" || len(call.Args) != 2 || call.Ellipsis != token.NoPos {
		return nil
	}
	dst, ok := call.Args[0].(*ast.Ident)
	if !ok || dst.Name != id.Name {
		return nil
	}
	// The appended element may be the range variable itself or a pure
	// projection of it (*v, v.Field, string(k)): unwrap to the base
	// identifier.
	arg := call.Args[1]
unwrap:
	for {
		switch a := arg.(type) {
		case *ast.StarExpr:
			arg = a.X
		case *ast.SelectorExpr:
			arg = a.X
		case *ast.ParenExpr:
			arg = a.X
		case *ast.CallExpr:
			if !c.isConversion(a) || len(a.Args) != 1 {
				break unwrap
			}
			arg = a.Args[0]
		default:
			break unwrap
		}
	}
	argID, ok := arg.(*ast.Ident)
	if !ok {
		return nil
	}
	argObj := c.pass.Info.Uses[argID]
	if argObj == nil || !c.isRangeVar(argObj) {
		return nil
	}
	obj := c.pass.Info.Uses[id]
	if obj == nil || c.local(obj) {
		return nil
	}
	return obj
}

// isRangeVar reports whether obj is the range statement's key or value
// variable.
func (c *rangeCheck) isRangeVar(obj types.Object) bool {
	for _, e := range []ast.Expr{c.rs.Key, c.rs.Value} {
		if id, ok := e.(*ast.Ident); ok {
			if def := c.pass.Info.Defs[id]; def == obj {
				return true
			}
			if use := c.pass.Info.Uses[id]; use == obj {
				return true
			}
		}
	}
	return false
}

// checkExprCalls flags calls inside an expression: only builtins and
// type conversions are order-safe; any other call may write to ordered
// output (encoders, buffers, hashes) in iteration order.
func (c *rangeCheck) checkExprCalls(n ast.Node) {
	if n == nil || c.offense != "" {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok || c.offense != "" {
			return c.offense == ""
		}
		if c.builtinName(call) != "" || c.isConversion(call) {
			return true
		}
		c.fail(call.Pos(), "calls %s, whose effects may depend on iteration order", renderExpr(call.Fun))
		return false
	})
}

// checkArgsCalls applies the call check to a call's arguments only
// (used for the allowed delete builtin).
func (c *rangeCheck) checkArgsCalls(call *ast.CallExpr) {
	for _, a := range call.Args {
		c.checkExprCalls(a)
	}
}

// builtinName returns the name of the builtin a call invokes, or "".
func (c *rangeCheck) builtinName(call *ast.CallExpr) string {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := c.pass.Info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// isConversion reports whether the call is a type conversion.
func (c *rangeCheck) isConversion(call *ast.CallExpr) bool {
	tv, ok := c.pass.Info.Types[call.Fun]
	return ok && tv.IsType()
}

// sortedLater reports whether the enclosing function passes the
// collected slice to a sort call (sort.*, slices.Sort*, or any function
// whose name mentions Sort — gossip.SortEntries-style helpers count).
func sortedLater(pass *Pass, scope *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(scope, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		var name string
		switch fn := call.Fun.(type) {
		case *ast.SelectorExpr:
			name = fn.Sel.Name
		case *ast.Ident:
			name = fn.Name
		default:
			return true
		}
		if !strings.Contains(name, "Sort") && !sortFuncNames[name] {
			return true
		}
		if id, ok := call.Args[0].(*ast.Ident); ok && pass.Info.Uses[id] == obj {
			found = true
			return false
		}
		return true
	})
	return found
}

// sortFuncNames are the sort/slices entry points whose names do not
// contain "Sort".
var sortFuncNames = map[string]bool{
	"Strings": true, "Ints": true, "Float64s": true, "Stable": true, "Slice": true, "SliceStable": true,
}

// renderExpr prints a compact source-ish form of an expression for
// diagnostics.
func renderExpr(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return renderExpr(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return renderExpr(e.X) + "[…]"
	case *ast.StarExpr:
		return "*" + renderExpr(e.X)
	case *ast.CallExpr:
		return renderExpr(e.Fun) + "(…)"
	case *ast.ParenExpr:
		return "(" + renderExpr(e.X) + ")"
	default:
		return "expression"
	}
}
